"""Free-algebra layer tests.

The oracle here is an independent rewriting engine: a raw product of
atoms over {B, E, O} is normalized by adjacent swaps only (xB -> Bx with
a sign flip when x = O, BB -> 1), never by the counting shortcut the
implementation uses.  Derived expectations below were computed with it
and frozen.
"""

import importlib
import pkgutil
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

import fwforge
from fwforge.ncalg import (
    Acomm,
    AbstractExpr,
    BetaF,
    Budget,
    BudgetOverflowError,
    Comm,
    EpsFun,
    Gen,
    MPow,
    PowN,
    Prod,
    Rat,
    Sum,
    evaluate,
    expand,
    parity_and_order,
)
from fwforge.lang import parse_expr
from fwforge.stepwise import ORDER2_BLOCKS
from oracles import coefficient, fraction_mul

# No word in these tests reaches this budget, so products under it keep
# every term.
BIG = Budget(64, 64)


# -- independent oracle ------------------------------------------------------


def rewrite_atoms(atoms):
    """Normal form of a product over {B, E, O} by adjacent rewrites."""
    sign = 1
    atoms = list(atoms)
    changed = True
    while changed:
        changed = False
        for i in range(len(atoms) - 1):
            a, b = atoms[i], atoms[i + 1]
            if a in ("E", "O") and b == "B":
                atoms[i], atoms[i + 1] = b, a
                if a == "O":
                    sign = -sign
                changed = True
                break
            if a == "B" and b == "B":
                del atoms[i : i + 2]
                changed = True
                break
    beta_exp = atoms.count("B")
    assert beta_exp in (0, 1) and all(a != "B" for a in atoms[beta_exp:])
    return sign, beta_exp, "".join(atoms[beta_exp:])


def term_atoms(beta_exp, word):
    return (["B"] if beta_exp else []) + list(word)


def oracle_mul(x: AbstractExpr, y: AbstractExpr) -> AbstractExpr:
    items = []
    for (b1, w1, k1), c1 in x.terms():
        for (b2, w2, k2), c2 in y.terms():
            sign, b, w = rewrite_atoms(term_atoms(b1, w1) + term_atoms(b2, w2))
            items.append(((b, w, k1 + k2), sign * c1 * c2))
    return AbstractExpr.from_terms(items)


def oracle_adjoint(x: AbstractExpr) -> AbstractExpr:
    # B, E, O, m are all self-adjoint; a product reverses.
    items = []
    for (b, w, k), c in x.terms():
        sign, b2, w2 = rewrite_atoms(list(reversed(term_atoms(b, w))))
        items.append(((b2, w2, k), sign * c))
    return AbstractExpr.from_terms(items)


# -- strategies --------------------------------------------------------------

coefficients = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64
).filter(lambda f: f != 0)


@st.composite
def coefficient_dicts(draw, max_terms=4, max_word=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        beta_exp = draw(st.integers(0, 1))
        word = "".join(draw(st.lists(st.sampled_from("EO"), max_size=max_word)))
        m_exp = draw(st.integers(-3, 3))
        terms[(beta_exp, word, m_exp)] = draw(coefficients)
    return terms


def abstract_exprs(max_terms=4, max_word=4):
    return coefficient_dicts(max_terms, max_word).map(AbstractExpr)


leaf_nodes = st.one_of(
    st.sampled_from([Gen("E"), Gen("O"), BetaF()]),
    st.builds(MPow, st.integers(-2, 2)),
    st.builds(Rat, coefficients),
)


def tree_nodes(depth):
    if depth <= 0:
        return leaf_nodes
    sub = tree_nodes(depth - 1)
    return st.one_of(
        leaf_nodes,
        st.builds(lambda cs: Sum(tuple(cs)), st.lists(sub, min_size=1, max_size=3)),
        st.builds(lambda cs: Prod(tuple(cs)), st.lists(sub, min_size=1, max_size=3)),
        st.builds(Comm, sub, sub),
        st.builds(Acomm, sub, sub),
        st.builds(PowN, sub, st.integers(0, 2)),
    )


# -- construction and canonical form -----------------------------------------


def test_zero_and_rational_terms():
    assert AbstractExpr.zero().is_zero()
    assert AbstractExpr.rational(0).is_zero()
    expr = AbstractExpr.rational(Fraction(5, 3))
    assert expr.terms() == [((0, "", 0), Fraction(5, 3))]


def test_cancellation_is_eager():
    expr = AbstractExpr.generator("O").sub(AbstractExpr.generator("O"))
    assert expr.is_zero() and len(expr) == 0


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        AbstractExpr.generator("X")


def test_term_order_is_beta_then_wordlen_then_word_then_mexp():
    expr = AbstractExpr(
        {
            (1, "E", 0): Fraction(1),
            (0, "OO", 0): Fraction(1),
            (0, "EO", -1): Fraction(1),
            (0, "EO", 2): Fraction(1),
            (0, "O", 0): Fraction(1),
        }
    )
    keys = [key for key, _ in expr.terms()]
    assert keys == [
        (0, "O", 0),
        (0, "EO", -1),
        (0, "EO", 2),
        (0, "OO", 0),
        (1, "E", 0),
    ]


# -- integer numerators over one denominator ----------------------------------


def stored(expr: AbstractExpr) -> dict:
    """The stored numerators, flattened to {(beta, word, m): numerator}."""
    return {
        (b, w, k): c for (_, _, b, k), group in expr._groups.items() for w, c in group.items()
    }


def assert_lowest_terms(expr: AbstractExpr):
    """Nonzero integer numerators over a positive denominator, sharing no
    factor with it; zero has denominator 1."""
    den, numerators = expr._den, list(stored(expr).values())
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in numerators)
    assert gcd(den, *numerators) == 1


def assert_grouped(expr: AbstractExpr):
    """No group is empty, and every word lies in its own group's
    (length, E count)."""
    for (length, e_count, beta_exp, _), group in expr._groups.items():
        assert group and beta_exp in (0, 1)
        assert all(len(w) == length and w.count("E") == e_count for w in group)


def fits(word: str, budget: Budget) -> bool:
    return len(word) <= budget.max_word_len and word.count("E") <= budget.max_e_count


def dict_sum(x: dict, y: dict, sign: int = 1) -> dict:
    acc = dict(x)
    for key, coeff in y.items():
        acc[key] = acc.get(key, 0) + sign * coeff
    return {key: coeff for key, coeff in acc.items() if coeff}


def in_canonical_order(terms: dict) -> list:
    return sorted(terms.items(), key=lambda kv: (kv[0][0], (len(kv[0][1]), kv[0][1]), kv[0][2]))


fractional = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64
).filter(lambda f: f.denominator > 1)


@given(
    coefficient_dicts(),
    coefficient_dicts(),
    st.sampled_from([BIG, Budget(3, 2), Budget(5, 1), Budget(2, 0), Budget(0, 0)]),
    fractional,
    st.integers(-3, 3),
)
@settings(max_examples=300)
def test_operations_match_fraction_dicts(fx, fy, budget, factor, delta):
    """Every operation of the integer kernel gives the coefficients the
    same operation gives on Fraction dicts, in lowest terms."""
    x, y = AbstractExpr(fx), AbstractExpr(fy)

    def check(expr: AbstractExpr, want: dict):
        assert_lowest_terms(expr)
        assert_grouped(expr)
        assert expr.terms() == in_canonical_order(want)
        assert expr == AbstractExpr(want) and hash(expr) == hash(AbstractExpr(want))

    check(x, fx)
    check(x.mul(y, BIG), fraction_mul(fx, fy))
    check(x.mul(y, budget), fraction_mul(fx, fy, budget))
    check(x.add(y), dict_sum(fx, fy))
    check(x.sub(y), dict_sum(fx, fy, -1))
    check(x.scale(factor), {key: c * factor for key, c in fx.items()})
    check(x.shift_m(delta), {(b, w, k + delta): c for (b, w, k), c in fx.items()})
    check(
        x.adjoint(),
        {(b, w[::-1], k): -c if b and w.count("O") % 2 else c for (b, w, k), c in fx.items()},
    )
    check(x.filtered(budget), {key: c for key, c in fx.items() if fits(key[1], budget)})
    parts = x.classify()
    want_parts: dict = {}
    for key, c in fx.items():
        want_parts.setdefault((key[1].count("E"), key[1].count("O")), {})[key] = c
    assert set(parts) == set(want_parts)
    for klass, part in parts.items():
        check(part, want_parts[klass])
    for key, c in fx.items():
        assert coefficient(x, *key) == c
    assert coefficient(x, 0, "EEEEEEE", 9) == 0
    assert all(type(c) is Fraction for _, c in x.terms())


def test_normal_form_is_unique():
    x = AbstractExpr(
        {
            (0, "O", 0): Fraction(2, 3),
            (1, "EO", -1): Fraction(-5, 6),
            (0, "", 2): Fraction(4),
        }
    )
    y = AbstractExpr({(0, "O", 0): Fraction(1, 3), (0, "E", 0): Fraction(7, 10)})
    assert (x._den, stored(x)) == (6, {(0, "O", 0): 4, (1, "EO", -1): -5, (0, "", 2): 24})
    for same in (x.scale(Fraction(1, 3)).scale(3), x.add(y).sub(y), x.scale(6).scale(Fraction(1, 6))):
        assert same == x and hash(same) == hash(x)
        assert (same._den, stored(same)) == (x._den, stored(x))
    # Dropping terms can leave a factor common to the rest.
    parts = x.classify()
    assert (parts[(0, 1)]._den, stored(parts[(0, 1)])) == (3, {(0, "O", 0): 2})
    assert (parts[(0, 0)]._den, stored(parts[(0, 0)])) == (1, {(0, "", 2): 4})
    kept = x.filtered(Budget(1, 0))
    assert (kept._den, stored(kept)) == (3, {(0, "O", 0): 2, (0, "", 2): 12})
    for part in (*parts.values(), kept):
        assert_lowest_terms(part)
    # Zero, however it comes about, has denominator 1.
    zeros = (
        x.sub(x),
        x.filtered(Budget(0, 0)).sub(AbstractExpr.m_power(2).scale(4)),
        x.scale(0),
        x.mul(AbstractExpr.generator("E"), Budget(1, 0)),
        AbstractExpr.zero(),
    )
    for zero in zeros:
        assert zero.is_zero() and (zero._den, zero._groups) == (1, {})
        assert zero == AbstractExpr() and hash(zero) == hash(AbstractExpr())


def test_one_word_under_two_beta_m_pairs():
    """A word stored in several groups, one per (beta, m): every operation
    matches the Fraction dicts, and the order the terms come in does not
    change the expression or its hash."""
    fx = {
        (0, "EO", 0): Fraction(1, 2),
        (1, "EO", 0): Fraction(-2, 3),
        (0, "EO", 1): Fraction(3),
        (1, "O", -1): Fraction(5, 4),
        (0, "OE", 0): Fraction(1, 6),
    }
    fy = {
        (1, "O", 0): Fraction(1),
        (0, "O", 0): Fraction(2, 5),
        (1, "E", 2): Fraction(-1, 3),
        (0, "EO", 0): Fraction(-1, 2),
    }
    x, y = AbstractExpr(fx), AbstractExpr(fy)
    assert len(x._groups) == 4 and len(x._groups[(2, 1, 0, 0)]) == 2
    for expr, want in (
        (x.mul(y, BIG), fraction_mul(fx, fy)),
        (y.mul(x, BIG), fraction_mul(fy, fx)),
        (x.mul(y, Budget(3, 1)), fraction_mul(fx, fy, Budget(3, 1))),
        (x.add(y), dict_sum(fx, fy)),
        (x.sub(y), dict_sum(fx, fy, -1)),
        (
            x.adjoint(),
            {(b, w[::-1], k): -c if b and w.count("O") % 2 else c for (b, w, k), c in fx.items()},
        ),
    ):
        assert_lowest_terms(expr)
        assert_grouped(expr)
        assert expr.terms() == in_canonical_order(want)
    parts = x.classify()
    assert sorted(parts) == [(0, 1), (1, 1)]
    assert parts[(1, 1)] == AbstractExpr({key: c for key, c in fx.items() if len(key[1]) == 2})
    assert parts[(0, 1)].terms() == [((1, "O", -1), Fraction(5, 4))]
    for items in (reversed(list(fx.items())), sorted(fx.items(), key=lambda kv: kv[0][2])):
        same = AbstractExpr.from_terms(items)
        assert same == x and hash(same) == hash(x)
        assert (same._den, stored(same)) == (x._den, stored(x))


# -- multiplication against the rewriting oracle ------------------------------


def test_beta_squares_to_one():
    beta = AbstractExpr.beta()
    assert beta.mul(beta, BIG) == AbstractExpr.rational(1)


def test_beta_commutes_with_e_anticommutes_with_o():
    beta = AbstractExpr.beta()
    e, o = AbstractExpr.generator("E"), AbstractExpr.generator("O")
    assert beta.commutator(e, BIG).is_zero()
    assert beta.anticommutator(o, BIG).is_zero()


@given(abstract_exprs(), abstract_exprs())
@settings(max_examples=200)
def test_mul_matches_rewriting_oracle(x, y):
    assert x.mul(y, BIG) == oracle_mul(x, y)


@given(abstract_exprs(), abstract_exprs(), abstract_exprs())
@settings(max_examples=100)
def test_mul_is_associative(x, y, z):
    assert x.mul(y, BIG).mul(z, BIG) == x.mul(y.mul(z, BIG), BIG)


@given(abstract_exprs(), abstract_exprs(), abstract_exprs())
@settings(max_examples=100)
def test_mul_distributes_over_add(x, y, z):
    assert x.mul(y.add(z), BIG) == x.mul(y, BIG).add(x.mul(z, BIG))


@given(abstract_exprs(), abstract_exprs())
@settings(max_examples=100)
def test_commutator_is_mul_difference(x, y):
    assert x.commutator(y, BIG) == x.mul(y, BIG).sub(y.mul(x, BIG))
    assert x.anticommutator(y, BIG) == x.mul(y, BIG).add(y.mul(x, BIG))


# -- adjoint ------------------------------------------------------------------


@given(abstract_exprs())
@settings(max_examples=200)
def test_adjoint_matches_oracle_and_is_involution(x):
    assert x.adjoint() == oracle_adjoint(x)
    assert x.adjoint().adjoint() == x


@given(abstract_exprs(), abstract_exprs())
@settings(max_examples=100)
def test_adjoint_antihomomorphism(x, y):
    assert x.mul(y, BIG).adjoint() == y.adjoint().mul(x.adjoint(), BIG)


# -- budget truncation ---------------------------------------------------------


@given(abstract_exprs(max_terms=3, max_word=3), abstract_exprs(max_terms=3, max_word=3))
@settings(max_examples=150)
def test_budgeted_mul_equals_filtered_full_mul(x, y):
    # Letters only accumulate, so skipping over-budget pairs during the
    # product is exactly filtering after it.
    budget = Budget(3, 2)
    assert x.mul(y, budget) == x.mul(y, BIG).filtered(budget)


def test_budget_rejects_negative_bounds():
    with pytest.raises(ValueError):
        Budget(-1, 0)


def test_budget_overflow_reports_node_path():
    budget = Budget(8, 8, term_cap=2)
    tree = Prod((Sum((Gen("E"), Gen("O"), BetaF())), Sum((Gen("E"), Gen("O")))))
    with pytest.raises(BudgetOverflowError) as info:
        expand(tree, budget)
    assert "Prod" in info.value.path
    assert info.value.cap == 2


# -- expand on structured trees -------------------------------------------------


def naive_expand(tree):
    """Reference evaluator used only by tests; products via the oracle."""
    if isinstance(tree, Gen):
        return AbstractExpr.generator(tree.letter)
    if isinstance(tree, BetaF):
        return AbstractExpr.beta()
    if isinstance(tree, MPow):
        return AbstractExpr.m_power(tree.k)
    if isinstance(tree, Rat):
        return AbstractExpr.rational(tree.value)
    if isinstance(tree, Sum):
        acc = AbstractExpr.zero()
        for child in tree.children:
            acc = acc.add(naive_expand(child))
        return acc
    if isinstance(tree, Prod):
        acc = AbstractExpr.rational(1)
        for child in tree.children:
            acc = oracle_mul(acc, naive_expand(child))
        return acc
    if isinstance(tree, Comm):
        a, b = naive_expand(tree.left), naive_expand(tree.right)
        return oracle_mul(a, b).sub(oracle_mul(b, a))
    if isinstance(tree, Acomm):
        a, b = naive_expand(tree.left), naive_expand(tree.right)
        return oracle_mul(a, b).add(oracle_mul(b, a))
    if isinstance(tree, PowN):
        acc = AbstractExpr.rational(1)
        base = naive_expand(tree.base)
        for _ in range(tree.n):
            acc = oracle_mul(acc, base)
        return acc
    raise TypeError(tree)


@given(tree_nodes(2))
@settings(max_examples=150, deadline=None)
def test_expand_matches_naive_reference(tree):
    assert expand(tree, BIG) == naive_expand(tree)


@given(tree_nodes(2))
@settings(max_examples=100, deadline=None)
def test_expand_truncation_is_exact_filtering(tree):
    budget = Budget(3, 2)
    assert expand(tree, budget) == naive_expand(tree).filtered(budget)


def test_pow_stops_once_the_power_vanishes(monkeypatch):
    calls = []
    mul = AbstractExpr.mul

    def counted(self, other, budget=None):
        calls.append(1)
        assert len(calls) <= 10, "pow kept multiplying a vanished power"
        return mul(self, other, budget)

    monkeypatch.setattr(AbstractExpr, "mul", counted)
    assert expand(PowN(Gen("E"), 10**20), Budget(2, 1)).is_zero()
    assert len(calls) == 1


def test_pow_of_a_lettered_base_that_never_vanishes():
    """(beta + O)^2 = 1 + O^2, so (beta + O)^(2k) is the binomial series of
    (1 + O^2)^k, cut at word length 8; k is far past any loop over units."""
    budget = Budget(8, 3)
    k = 5 * 10**19
    base = Sum((BetaF(), Gen("O")))
    even = Sum(tuple(Prod((Rat(Fraction(comb(k, j))), PowN(Gen("O"), 2 * j))) for j in range(5)))
    assert expand(PowN(base, 2 * k), budget) == expand(even, budget)
    assert expand(PowN(base, 2 * k + 1), budget) == expand(Prod((even, base)), budget)


def test_pow_of_letterless_terms_squares(monkeypatch):
    """Powers square: about two products per bit of the exponent, not one
    per unit."""
    calls = []
    mul = AbstractExpr.mul

    def counted(self, other, budget=None):
        calls.append(1)
        assert len(calls) <= 200, "pow multiplied once per unit of the exponent"
        return mul(self, other, budget)

    monkeypatch.setattr(AbstractExpr, "mul", counted)
    assert expand(PowN(BetaF(), 10**20), BIG) == AbstractExpr.rational(Fraction(1))
    assert expand(PowN(BetaF(), 10**20 + 1), BIG) == expand(BetaF(), BIG)
    monkeypatch.setattr(AbstractExpr, "mul", mul)
    base = Sum((Prod((BetaF(), MPow(1))), Rat(Fraction(1, 3)), MPow(-2)))
    stepwise = AbstractExpr.rational(Fraction(1))
    for n in range(12):
        assert expand(PowN(base, n), BIG) == stepwise, n
        stepwise = stepwise.mul(expand(base, BIG), BIG)


def test_double_commutator_o_o_e():
    # [O,[O,E]] expands to EOO - 2 OEO + OOE.
    got = expand(Comm(Gen("O"), Comm(Gen("O"), Gen("E"))), BIG)
    want = AbstractExpr(
        {
            (0, "EOO", 0): Fraction(1),
            (0, "OEO", 0): Fraction(-2),
            (0, "OOE", 0): Fraction(1),
        }
    )
    assert got == want


def test_anticommutator_interior_five_words():
    # {O,[[O,E],E]} expands to EEOO - 2 EOEO + 2 OEEO - 2 OEOE + OOEE.
    got = expand(Acomm(Gen("O"), Comm(Comm(Gen("O"), Gen("E")), Gen("E"))), BIG)
    want = AbstractExpr(
        {
            (0, "EEOO", 0): Fraction(1),
            (0, "EOEO", 0): Fraction(-2),
            (0, "OEEO", 0): Fraction(2),
            (0, "OEOE", 0): Fraction(-2),
            (0, "OOEE", 0): Fraction(1),
        }
    )
    assert got == want


def test_classify_single_class_interior():
    expr = expand(Acomm(Gen("O"), Comm(Comm(Gen("O"), Gen("E")), Gen("E"))), BIG)
    buckets = expr.classify()
    assert set(buckets) == {(2, 2)}
    assert len(buckets[(2, 2)]) == 5


def test_classify_of_zero_is_empty():
    assert AbstractExpr.zero().classify() == {}


@given(abstract_exprs())
@settings(max_examples=100)
def test_classify_partitions_the_expression(x):
    acc = AbstractExpr.zero()
    for piece in x.classify().values():
        acc = acc.add(piece)
    assert acc == x


def test_a22_rewrite_identity():
    # beta {O,[[O,E],E]} = beta [[O^2,E],E] - 2 beta ([O,E])^2.
    o, e = Gen("O"), Gen("E")
    lhs = expand(Prod((BetaF(), Acomm(o, Comm(Comm(o, e), e)))), BIG)
    rhs = expand(Prod((BetaF(), Comm(Comm(PowN(o, 2), e), e))), BIG).sub(
        expand(Prod((BetaF(), PowN(Comm(o, e), 2))), BIG).scale(2)
    )
    assert lhs == rhs


# -- parity and order grading ----------------------------------------------------


def comm(a, b):
    return Comm(a, b)


def acomm(a, b):
    return Acomm(a, b)


O1, E1 = Gen("O"), Gen("E")
O2 = PowN(Gen("O"), 2)

GRADING_CASES = [
    (comm(O1, comm(O1, E1)), "even", 1),
    (comm(O2, comm(O1, E1)), "odd", 2),
    (comm(O2, comm(O2, E1)), "even", 2),
    (comm(comm(O1, E1), E1), "odd", 2),
    (PowN(comm(O1, E1), 2), "even", 2),
    (PowN(comm(O2, E1), 2), "even", 2),
    (acomm(O2, PowN(comm(O1, E1), 2)), "even", 2),
    (acomm(O2, comm(comm(O2, E1), E1)), "even", 2),
    (comm(O1, comm(O1, comm(comm(O2, E1), E1))), "even", 3),
    (comm(comm(O1, comm(O1, comm(O2, E1))), E1), "even", 3),
    (comm(O2, comm(O1, comm(comm(O1, E1), E1))), "even", 3),
    (comm(O1, comm(comm(comm(O1, E1), E1), E1)), "even", 3),
    (comm(O2, comm(O2, comm(O1, comm(O1, E1)))), "even", 3),
]


@pytest.mark.parametrize("tree,parity,order", GRADING_CASES)
def test_grading_matches_keep_drop_list(tree, parity, order):
    assert parity_and_order(tree) == (parity, order)


def test_grading_of_generators_and_scalars():
    assert parity_and_order(Gen("E")) == ("even", 0)
    assert parity_and_order(Gen("O")) == ("odd", 0)
    assert parity_and_order(BetaF()) == ("even", 0)
    assert parity_and_order(MPow(-3)) == ("even", 0)
    assert parity_and_order(Rat(Fraction(1, 2))) == ("even", 0)
    assert parity_and_order(EpsFun("eps")) == ("even", 0)


def test_grading_odd_cases():
    assert parity_and_order(comm(O1, E1)) == ("odd", 1)
    # [O, O^3]: both children odd, the bracket costs nothing.
    assert parity_and_order(comm(O1, PowN(O1, 3))) == ("even", 0)
    # [O, O^2]: odd against even still pays the bracket.
    assert parity_and_order(comm(O1, O2)) == ("odd", 1)
    assert parity_and_order(Prod((O1, E1))) == ("odd", 0)
    assert parity_and_order(PowN(O1, 3)) == ("odd", 0)
    assert parity_and_order(PowN(O1, 2)) == ("even", 0)


def test_mixed_sum_has_no_order():
    assert parity_and_order(Sum((O1, E1))) == ("mixed", None)
    # Mixed children poison enclosing nodes too.
    assert parity_and_order(Prod((Sum((O1, E1)), E1))) == ("mixed", None)


def test_sum_order_is_minimum_of_children():
    tree = Sum((comm(O1, comm(O1, E1)), comm(O2, comm(O2, E1))))
    assert parity_and_order(tree) == ("even", 1)


@given(tree_nodes(2))
@settings(max_examples=150, deadline=None)
def test_parity_agrees_with_expansion(tree):
    parity, _ = parity_and_order(tree)
    if parity == "mixed":
        return
    expr = expand(tree, BIG)
    if expr.is_zero():
        return
    observed = {(w.count("O")) % 2 for (_, w, _), _ in expr.terms()}
    assert observed == {1 if parity == "odd" else 0}


def test_only_ncalg_and_lang_bind_tree_node_classes():
    """Bracket trees live between lang.parse_expr and ncalg.expand: no other
    fwforge module binds a tree node class among its globals."""
    nodes = {Gen, BetaF, MPow, Rat, Sum, Prod, Comm, Acomm, PowN, EpsFun}
    names = ["fwforge"] + [
        f"fwforge.{info.name}"
        for info in pkgutil.iter_modules(fwforge.__path__)
        if info.name not in ("ncalg", "lang")
    ]
    for name in names:
        module = vars(importlib.import_module(name))
        bound = [key for key, value in module.items() if isinstance(value, type) and value in nodes]
        assert not bound, (name, bound)


def test_every_name_in_a_module_all_resolves():
    """A name left in __all__ after its definition moved away fails here."""
    names = ["fwforge"] + [f"fwforge.{info.name}" for info in pkgutil.iter_modules(fwforge.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
        assert not missing, (name, missing)


# -- folding a tree over another algebra ----------------------------------------

class Folded:
    """An expression whose products take BIG: `evaluate` multiplies with no
    budget, as the concretizer's algebra does."""

    def __init__(self, expr: AbstractExpr):
        self.expr = expr

    def mul(self, other: "Folded") -> "Folded":
        return Folded(self.expr.mul(other.expr, BIG))

    def commutator(self, other: "Folded") -> "Folded":
        return Folded(self.expr.commutator(other.expr, BIG))


GENERATORS = {"E": Folded(AbstractExpr.generator("E")), "O": Folded(AbstractExpr.generator("O"))}
FOLDED_TEXTS = [interior for _, _, _, interior in ORDER2_BLOCKS] + [
    "O",
    "pow(E, 1)",
    "comm(E, O)",
    "comm(comm(O, E), pow(O, 3))",
    "pow(comm(O, comm(E, O)), 2)",
    "comm(pow(comm(O, E), 2), comm(E, pow(O, 2)))",
]


@pytest.mark.parametrize("text", FOLDED_TEXTS)
def test_evaluate_over_generators_is_the_expansion(text):
    tree = parse_expr(text)
    assert evaluate(tree, GENERATORS, lambda x: x).expr == expand(tree, Budget(12, 6))
    # reduce runs at every node: filtering each value as it is built is
    # what expand does under a budget
    small = Budget(4, 2)
    folded = evaluate(tree, GENERATORS, lambda x: Folded(x.expr.filtered(small)))
    assert folded.expr == expand(tree, small)


@pytest.mark.parametrize(
    "text", ["epsfun(eps)", "beta", "m^2", "1/2", "pow(O, 0)", "comm(O, beta)", "O * E", "O + E"]
)
def test_evaluate_refuses_other_nodes(text):
    with pytest.raises(TypeError, match="evaluate handles letters, comm and pow"):
        evaluate(parse_expr(text), GENERATORS, lambda x: x)
