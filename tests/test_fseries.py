"""Series-engine tests.

Oracle: sympy's commutative series expansion.  Each registry function
has a closed form in (eps, m); substituting eps = m*sqrt(1+x) and
expanding in x must reproduce the CentralSeries coefficients exactly.
The registry's closed forms are restated here independently rather than
imported from the implementation.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from fwforge.fseries import (
    CentralSeries,
    REGISTRY,
    SingularSeriesError,
    binomial_coefficient,
    central_expand,
    nc_binomial_power,
    to_abstract,
)
from fwforge.ncalg import AbstractExpr, Budget, BudgetOverflowError

_M, _X, _EPS = sp.symbols("m x epsilon", positive=True)

# Closed forms and m-offsets, stated independently of the implementation.
ORACLE_FORMS = {
    "eps": (_EPS, 1),
    "inv_eps": (1 / _EPS, -1),
    "inv_eps_epsm": (1 / (_EPS * (_EPS + _M)), -2),
    "quartic_kernel": ((2 * _EPS**2 + 2 * _EPS * _M + _M**2) / (_EPS**4 * (_EPS + _M) ** 2), -4),
    "inv_eps3": (1 / _EPS**3, -3),
    "inv_eps5": (1 / _EPS**5, -5),
    "inv_sqrt2": (1 / sp.sqrt(2 * _EPS * (_EPS + _M)), -1),
    "fact_plus": ((_EPS + _M) / sp.sqrt(2 * _EPS * (_EPS + _M)), 0),
}


def oracle_series(form, offset, order):
    """x-polynomial of form(eps -> m sqrt(1+x)) / m^offset via sympy."""
    substituted = form.subs(_EPS, _M * sp.sqrt(1 + _X)) / _M**offset
    poly = sp.series(sp.simplify(substituted), _X, 0, order + 1).removeO()
    poly = sp.expand(sp.simplify(poly))
    coeffs = {}
    for k in range(order + 1):
        c = sp.simplify(poly.coeff(_X, k))
        assert c.is_rational, f"non-rational oracle coefficient {c}"
        if c != 0:
            coeffs[k] = Fraction(int(sp.Rational(c).p), int(sp.Rational(c).q))
    return coeffs


def as_fraction_map(series):
    return dict(series.to_terms())


def test_registry_has_the_documented_names():
    assert set(REGISTRY) == {
        "eps",
        "inv_eps",
        "inv_eps_epsm",
        "quartic_kernel",
        "inv_eps3",
        "inv_eps5",
        "inv_sqrt2",
        "fact_plus",
    }


@pytest.mark.parametrize("name", sorted(ORACLE_FORMS))
def test_registry_matches_sympy_oracle(name):
    form, offset = ORACLE_FORMS[name]
    series = central_expand(name, 4)
    assert series.offset == offset
    assert as_fraction_map(series) == oracle_series(form, offset, 4)


def test_registry_pairwise_products_match_oracle():
    # mul must agree with the series of the product function.
    names = sorted(ORACLE_FORMS)
    order = 3
    expanded = {name: central_expand(name, order) for name in names}
    for a in names:
        for b in names:
            form = ORACLE_FORMS[a][0] * ORACLE_FORMS[b][0]
            offset = ORACLE_FORMS[a][1] + ORACLE_FORMS[b][1]
            product = expanded[a].mul(expanded[b])
            assert product.offset == offset, (a, b)
            assert as_fraction_map(product) == oracle_series(form, offset, order), (a, b)


# -- frozen expansions -----------------------------------------------------------


def test_eps_series_through_fourth_order():
    series = central_expand("eps", 4)
    assert series.offset == 1
    assert as_fraction_map(series) == {
        0: Fraction(1),
        1: Fraction(1, 2),
        2: Fraction(-1, 8),
        3: Fraction(1, 16),
        4: Fraction(-5, 128),
    }


def test_inv_eps_epsm_through_second_order():
    series = central_expand("inv_eps_epsm", 2)
    assert series.offset == -2
    assert as_fraction_map(series) == {
        0: Fraction(1, 2),
        1: Fraction(-3, 8),
        2: Fraction(5, 16),
    }


def test_inv_eps3_through_first_order():
    series = central_expand("inv_eps3", 1)
    assert series.offset == -3
    assert as_fraction_map(series) == {0: Fraction(1), 1: Fraction(-3, 2)}


def test_unknown_name_and_bad_order():
    with pytest.raises(KeyError):
        central_expand("epsilon", 2)
    with pytest.raises(ValueError):
        central_expand("eps", -1)


# -- ring operations ---------------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=24
)


@st.composite
def central_series(draw, order=4, nonzero_constant=False):
    offset = draw(st.integers(-4, 4))
    coeffs = {k: draw(rationals) for k in range(order + 1)}
    if nonzero_constant and not coeffs[0]:
        coeffs[0] = Fraction(1)
    return CentralSeries(coeffs, order, offset)


@given(central_series(), central_series())
@settings(max_examples=100)
def test_mul_is_commutative_here(a, b):
    assert a.mul(b) == b.mul(a)


@given(central_series(nonzero_constant=True))
@settings(max_examples=150)
def test_invert_is_a_right_inverse(a):
    product = a.mul(a.invert())
    assert product.offset == 0
    assert as_fraction_map(product) == {0: Fraction(1)}


@given(central_series())
@settings(max_examples=100)
def test_sqrt_of_square_recovers_positive_root(a):
    if a.coefficient(0) <= 0:
        a = a.add(CentralSeries.constant(1 + abs(a.coefficient(0)), a.order, a.offset))
    root = a.mul(a).sqrt()
    assert root == a


def test_add_requires_matching_offset():
    a = CentralSeries({0: Fraction(1)}, 3, 1)
    b = CentralSeries({0: Fraction(1)}, 3, 2)
    with pytest.raises(ValueError):
        a.add(b)


def test_invert_singular_series():
    with pytest.raises(SingularSeriesError):
        CentralSeries({1: Fraction(1)}, 3, 0).invert()


def test_sqrt_domain_errors():
    with pytest.raises(ValueError):
        CentralSeries({0: Fraction(1)}, 3, 1).sqrt()  # odd offset
    with pytest.raises(ValueError):
        CentralSeries({0: Fraction(2)}, 3, 0).sqrt()  # not a rational square
    with pytest.raises(ValueError):
        CentralSeries({0: Fraction(-1)}, 3, 0).sqrt()


def test_binomial_coefficients_at_one_half():
    values = [binomial_coefficient(Fraction(1, 2), k) for k in range(5)]
    assert values == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 8),
        Fraction(1, 16),
        Fraction(-5, 128),
    ]


def test_to_abstract_spells_x_as_o_pairs():
    series = central_expand("eps", 2)
    assert to_abstract(series) == AbstractExpr(
        {
            (0, "", 1): Fraction(1),
            (0, "OO", -1): Fraction(1, 2),
            (0, "OOOO", -3): Fraction(-1, 8),
        }
    )


def test_default_central_order_tracks_word_budget():
    assert Budget(8, 3).central_order == 4
    assert Budget(7, 3).central_order == 4
    assert Budget(1, 0).central_order == 1
    assert Budget(0, 0).central_order == 0


# -- noncommutative binomial --------------------------------------------------------


def test_binomial_of_zero_is_one():
    got = nc_binomial_power(AbstractExpr.zero(), Fraction(1, 2), Budget(4, 2))
    assert got == AbstractExpr.rational(1)


def test_binomial_of_central_scalar_matches_commutative_series():
    # X = x * 1 with x = O^2/m^2 central: coefficients must be C(-1/2, k).
    x_central = AbstractExpr({(0, "OO", -2): Fraction(1)})
    got = nc_binomial_power(x_central, Fraction(-1, 2), Budget(4, 0))
    assert got == AbstractExpr(
        {
            (0, "", 0): Fraction(1),
            (0, "OO", -2): Fraction(-1, 2),
            (0, "OOOO", -4): Fraction(3, 8),
        }
    )


def square_root_base():
    # X = (2 beta E + E^2 + EO + OE + O^2)/m^2, i.e. H^2/m^2 - 1 for
    # H = beta m + E + O.
    return AbstractExpr(
        {
            (1, "E", -2): Fraction(2),
            (0, "EE", -2): Fraction(1),
            (0, "EO", -2): Fraction(1),
            (0, "OE", -2): Fraction(1),
            (0, "OO", -2): Fraction(1),
        }
    )


def test_binomial_square_root_defining_property():
    budget = Budget(6, 3)
    x_expr = square_root_base()
    root = nc_binomial_power(x_expr, Fraction(1, 2), budget)
    square = root.mul(root, budget)
    assert square == AbstractExpr.rational(1).add(x_expr).filtered(budget)


def test_binomial_inverse_square_root_cancels_square_root():
    budget = Budget(6, 3)
    x_expr = square_root_base()
    plus = nc_binomial_power(x_expr, Fraction(1, 2), budget)
    minus = nc_binomial_power(x_expr, Fraction(-1, 2), budget)
    assert plus.mul(minus, budget) == AbstractExpr.rational(1)


def test_binomial_rejects_constant_term():
    bad = AbstractExpr({(0, "", -2): Fraction(1), (0, "OO", -2): Fraction(1)})
    with pytest.raises(ValueError):
        nc_binomial_power(bad, Fraction(1, 2), Budget(4, 2))


def test_binomial_holds_each_power_to_the_term_cap():
    x_expr = AbstractExpr({(0, "OO", -2): Fraction(1), (0, "E", -1): Fraction(1)})
    with pytest.raises(BudgetOverflowError) as info:
        nc_binomial_power(x_expr, Fraction(1, 2), Budget(6, 3, term_cap=3), path="root")
    assert info.value.path == "root.power[2]"


def test_binomial_requires_budget():
    with pytest.raises(ValueError):
        nc_binomial_power(AbstractExpr.zero(), Fraction(1, 2), None)


@st.composite
def homogeneous_operands(draw):
    # Every term satisfies wordLen + mExp = 0, no constant part.
    n = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n):
        beta_exp = draw(st.integers(0, 1))
        word = "".join(
            draw(st.lists(st.sampled_from("EO"), min_size=1, max_size=3))
        )
        terms[(beta_exp, word, -len(word))] = draw(
            rationals.filter(lambda f: f != 0)
        )
    return AbstractExpr(terms)


@given(homogeneous_operands(), st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2), Fraction(1), Fraction(-1)]))
@settings(max_examples=100, deadline=None)
def test_binomial_preserves_homogeneity(x_expr, q):
    result = nc_binomial_power(x_expr, q, Budget(5, 5))
    assert all(len(word) + m_exp == 0 for (_, word, m_exp), _ in result.terms())
