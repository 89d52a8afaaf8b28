"""Tests for the iterative-method Hamiltonians.

Covers the order-2 closed form and its static expansion, the displayed
series encoding, the leading practical form, the inverse-mass
truncation, and the second-step derivation from the exact first-step
operators.  Frozen class contents were derived with an independent
free-word series oracle before being pinned.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwforge import cli
from fwforge.lang import parse_expr
from fwforge.ncalg import (
    AbstractExpr,
    Acomm,
    BetaF,
    Budget,
    Comm,
    EpsFun,
    Gen,
    MPow,
    PowN,
    Prod,
    Rat,
    Sum,
    expand,
)
from fwforge.stepwise import (
    CLASSICAL,
    DISPLAYED,
    EPRIME,
    ITERATIVE,
    LEADING,
    OPRIME,
    SECOND_STEP,
    build_iterative,
    derive_second_step,
    expand_static,
    inverse_mass_truncate,
)
from fwforge.comparator import min_hbar_order
from oracles import restrict_class

O = Gen("O")
E = Gen("E")
O2 = PowN(O, 2)


def sc(q, *factors):
    return Prod((Rat(Fraction(q)),) + tuple(factors))


def o_parity(word: str) -> int:
    return (len(word) - word.count("E")) % 2


# -- closed form and its expansion -----------------------------------------------


def test_closed_form_texts_are_assembled_from_the_block_table():
    assert LEADING == (
        "beta * epsfun(eps) + E - 1/8 acomm(epsfun(inv_eps_epsm), comm(O, comm(O, E)))"
    )
    assert ITERATIVE == LEADING + (
        " + 1/64 acomm(epsfun(quartic_kernel), comm(pow(O, 2), comm(pow(O, 2), E)))"
        " - 1/16 beta acomm(epsfun(inv_eps3), pow(comm(O, E), 2))"
        " + 1/64 beta acomm(epsfun(inv_eps5), pow(comm(pow(O, 2), E), 2))"
    )


def test_structured_terms_are_beta_even(budget83):
    for child in build_iterative().children:
        piece = expand(child, budget83)
        assert all(o_parity(word) == 0 for (_, word, _), _ in piece.terms())


@pytest.mark.parametrize("budget", [Budget(8, 3), Budget(6, 2)])
def test_static_expansion_even_and_self_adjoint(budget):
    expanded = expand_static(build_iterative(), budget)
    assert all(o_parity(word) == 0 for (_, word, _), _ in expanded.terms())
    assert expanded.adjoint().sub(expanded).is_zero()


def test_one_e_classes_match_display_weights(static13_83, budget83):
    quartic = Sum((sc(8, MPow(4)), sc(-6, MPow(2), O2), sc(5, PowN(O, 4))))
    quadratic = Sum((sc(10, MPow(2)), sc(-19, O2)))
    display = expand(
        Sum(
            (
                E,
                sc(Fraction(-1, 128), MPow(-6), Acomm(quartic, Comm(O, Comm(O, E)))),
                sc(Fraction(1, 512), MPow(-6), Acomm(quadratic, Comm(O2, Comm(O2, E)))),
            )
        ),
        budget83,
    )
    for klass in [(1, 0), (1, 2), (1, 4), (1, 6)]:
        mine = restrict_class(static13_83, *klass)
        assert mine.sub(restrict_class(display, *klass)).is_zero(), klass


def test_two_e_two_o_class(static13_83, budget83):
    expected = expand(sc(Fraction(-1, 8), MPow(-3), BetaF(), PowN(Comm(O, E), 2)), budget83)
    assert restrict_class(static13_83, 2, 2).sub(expected).is_zero()


def test_energy_line_matches_exact_transform(static13_83, eriksen83):
    for klass in [(0, 0), (0, 2), (0, 4), (0, 6), (0, 8)]:
        assert restrict_class(static13_83, *klass).sub(
            restrict_class(eriksen83, *klass)
        ).is_zero(), klass
    assert restrict_class(static13_83, 1, 2).sub(restrict_class(eriksen83, 1, 2)).is_zero()


def test_each_class_holds_one_beta_m_stratum(eriksen83, static13_83, budget83):
    """Every term of H = beta m + E + O and of what its transforms give has
    mass dimension one, so m^(1 - len(word)), and is even under (m, beta)
    -> (-m, -beta), so beta^((1 - len(word)) mod 2): each class of every
    operator the program compares is one (beta, m) stratum."""
    operators = {
        "H_FW": eriksen83,
        "ITERATIVE": static13_83,
        "DISPLAYED": expand(parse_expr(DISPLAYED), budget83),
        "SECOND_STEP": expand(parse_expr(SECOND_STEP), budget83),
    }
    for name, operator in operators.items():
        for (beta_exp, word, m_exp), _ in operator.terms():
            assert m_exp == 1 - len(word), (name, word)
            assert beta_exp == m_exp % 2, (name, word)


# -- displayed static series (incomplete by construction) -------------------------


def test_display_misses_exactly_the_known_quartic_term(static13_83, budget83):
    display = expand(parse_expr(DISPLAYED), budget83)
    delta = static13_83.sub(display)
    assert sorted(delta.classify()) == [(2, 4), (2, 6)]
    extra = expand(
        sc(Fraction(3, 32), MPow(-5), BetaF(), Acomm(O2, PowN(Comm(O, E), 2))),
        budget83,
    )
    assert restrict_class(delta, 2, 4).sub(extra).is_zero()


# -- leading practical form -------------------------------------------------------


def test_leading_form_is_the_exact_subset(static13_83, budget83):
    lead = expand(parse_expr(LEADING), budget83)
    rest = expand(
        Sum(
            (
                sc(Fraction(1, 64), Acomm(EpsFun("quartic_kernel"), Comm(O2, Comm(O2, E)))),
                sc(Fraction(-1, 16), BetaF(), Acomm(EpsFun("inv_eps3"), PowN(Comm(O, E), 2))),
                sc(Fraction(1, 64), BetaF(), Acomm(EpsFun("inv_eps5"), PowN(Comm(O2, E), 2))),
            )
        ),
        budget83,
    )
    assert static13_83.sub(lead.add(rest)).is_zero()


def test_leading_form_one_e_two_o_coefficient(budget83):
    lead = expand(parse_expr(LEADING), budget83)
    bracket = expand(sc(Fraction(-1, 8), MPow(-2), Comm(O, Comm(O, E))), budget83)
    assert restrict_class(lead, 1, 2).sub(bracket).is_zero()


def test_leading_form_without_odd_letters(budget83):
    lead = expand(parse_expr(LEADING), budget83)
    kept = AbstractExpr.from_terms(
        (key, coeff) for key, coeff in lead.terms() if "O" not in key[1]
    )
    expected = AbstractExpr.beta().shift_m(1).add(AbstractExpr.generator("E"))
    assert kept.sub(expected).is_zero()


def test_difference_to_leading_lives_at_order_two(static13_83, budget83, basis83):
    diff = static13_83.sub(expand(parse_expr(LEADING), budget83))
    orders = {
        klass: min_hbar_order(piece, basis83)
        for klass, piece in diff.classify().items()
    }
    assert orders == {(1, 4): 2, (1, 6): 2, (2, 2): 2, (2, 4): 2, (2, 6): 2}


# -- inverse-mass truncation ------------------------------------------------------


def test_truncation_reproduces_classical_form(static13_83, budget83):
    truncated = inverse_mass_truncate(static13_83, 3)
    assert truncated.sub(expand(parse_expr(CLASSICAL), budget83)).is_zero()


def test_truncated_methods_disagree_by_one_bracket(eriksen83, static13_83, budget83):
    delta = inverse_mass_truncate(eriksen83, 3).sub(inverse_mass_truncate(static13_83, 3))
    expected = expand(
        sc(Fraction(1, 16), MPow(-3), BetaF(), Comm(Comm(O2, E), E)), budget83
    )
    assert delta.sub(expected).is_zero()


def test_truncation_at_zero_keeps_rest_mass_and_potential(static13_83):
    expected = AbstractExpr.beta().shift_m(1).add(AbstractExpr.generator("E"))
    assert inverse_mass_truncate(static13_83, 0).sub(expected).is_zero()


@st.composite
def word_exprs(draw):
    n_terms = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n_terms):
        beta = draw(st.integers(min_value=0, max_value=1))
        word = "".join(draw(st.lists(st.sampled_from("EO"), max_size=4)))
        m_exp = draw(st.integers(min_value=-6, max_value=3))
        num = draw(st.integers(min_value=-9, max_value=9))
        den = draw(st.integers(min_value=1, max_value=9))
        terms[(beta, word, m_exp)] = Fraction(num, den)
    return AbstractExpr.from_terms(terms.items())


@given(expr=word_exprs(), k_max=st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_truncation_filter_semantics(expr, k_max):
    kept = inverse_mass_truncate(expr, k_max)
    assert all(m_exp >= -k_max for (_, _, m_exp), _ in kept.terms())
    assert inverse_mass_truncate(kept, k_max).sub(kept).is_zero()
    dropped = expr.sub(kept)
    assert all(m_exp < -k_max for (_, _, m_exp), _ in dropped.terms())


# -- first-step operators ---------------------------------------------------------


def test_first_step_parities(budget83):
    even = expand(parse_expr(EPRIME), budget83)
    odd = expand(parse_expr(OPRIME), budget83)
    assert all(o_parity(word) == 0 for (_, word, _), _ in even.terms())
    assert all(o_parity(word) == 1 for (_, word, _), _ in odd.terms())
    assert even.adjoint().sub(even).is_zero()


def test_first_step_even_part_is_linear_in_potential(budget83):
    even = expand(parse_expr(EPRIME), budget83)
    assert all(word.count("E") == 1 for (_, word, _), _ in even.terms())


# -- second step ------------------------------------------------------------------


def test_second_step_needs_two_potential_letters():
    with pytest.raises(ValueError):
        derive_second_step(Budget(8, 1))


def test_second_step_report(budget83, static13_83):
    derived, report = derive_second_step(budget83)
    assert report["status"] == "pass"

    rows = {(row["e"], row["o"]): row for row in report["classes"]}
    assert sorted(rows) == [(1, 6), (2, 4), (2, 6)]
    assert all(row["status"] == "explained" for row in rows.values())
    assert not any("unexplained" in row for row in rows.values())

    # the only one-potential deviation is a single depth-three bracket
    (term,) = rows[(1, 6)]["delta_brackets"]
    assert term == {
        "bracket": "comm(pow(O, 2), comm(pow(O, 2), comm(O, comm(O, E))))",
        "weight": "9/1024",
        "m_exp": -6,
    }
    assert [
        (t["weight"], t["m_exp"], t["bracket"]) for t in rows[(2, 4)]["delta_brackets"]
    ] == [
        ("1/64", -5, "beta * comm(O, comm(O, pow(comm(O, E), 2)))"),
        ("1/32", -5, "beta * comm(comm(O, E), comm(pow(O, 2), comm(O, E)))"),
    ]
    assert len(rows[(2, 6)]["delta_brackets"]) == 20

    # classes absent from the report are exactly equal
    for klass in [(1, 2), (1, 4), (2, 2)]:
        assert restrict_class(derived, *klass).sub(
            restrict_class(static13_83, *klass)
        ).is_zero(), klass

    # no potential letters at all: the energy series of the exact method
    series = expand(Prod((BetaF(), EpsFun("eps"))), budget83)
    energy_line = AbstractExpr.zero()
    for (e_count, _), piece in derived.classify().items():
        if e_count == 0:
            energy_line = energy_line.add(piece)
    assert energy_line.sub(series).is_zero()


# -- bracket explanations rebuild their differences ---------------------------------


def _second_step_difference(budget):
    derived, _ = derive_second_step(budget)
    return derived.sub(expand_static(build_iterative(), budget))


def _display_difference(budget):
    return expand_static(build_iterative(), budget).sub(
        expand(parse_expr(DISPLAYED), budget)
    )


@pytest.mark.parametrize(
    "target, budget, difference",
    [
        ("stepwise", Budget(6, 2), _display_difference),
        ("second-step", Budget(7, 2), _second_step_difference),
    ],
)
def test_explanation_rows_rebuild_the_difference(target, budget, difference, tmp_path):
    """Each row's brackets, read back from the emitted JSON, sum to that
    class of the difference: a bracket printed without its beta fails."""
    out = tmp_path / "report.json"
    argv = ["derive", target, "--max-len", str(budget.max_word_len)]
    assert cli.main([*argv, "--max-e", str(budget.max_e_count), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["classes"]
    diff = difference(budget)
    assert [(row["e"], row["o"]) for row in rows] == sorted(diff.classify())
    for row in rows:
        rebuilt = AbstractExpr.zero()
        for term in row["delta_brackets"]:
            weighted = Prod(
                (Rat(Fraction(term["weight"])), MPow(term["m_exp"]), parse_expr(term["bracket"]))
            )
            rebuilt = rebuilt.add(expand(weighted, budget))
        for text in row.get("unexplained", []):
            rebuilt = rebuilt.add(expand(parse_expr(text), budget))
        assert rebuilt.sub(restrict_class(diff, row["e"], row["o"])).is_zero(), row
