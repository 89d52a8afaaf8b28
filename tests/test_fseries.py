"""Series-engine tests.

Oracle: sympy's commutative series expansion.  Each registry function
has a closed form in (eps, m); substituting eps = m*sqrt(1+x) and
expanding in x must reproduce the coefficient of every word O^(2k) at
m^(offset-2k) exactly, with no other term.  The registry's closed forms
are restated here independently rather than imported from the
implementation.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from fwforge.fseries import (
    REGISTRY,
    SingularSeriesError,
    binomial_coefficient,
    central_expand,
    central_power,
    nc_binomial_power,
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


def x_coefficients(expr, offset):
    """{k: c} for the terms c m^(offset-2k) O^(2k); any other term fails."""
    coeffs = {}
    for (beta_exp, word, m_exp), c in expr.terms():
        k = len(word) // 2
        assert (beta_exp, word, m_exp) == (0, "O" * (2 * k), offset - 2 * k)
        coeffs[k] = c
    return coeffs


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
    series = central_expand(name, Budget(8, 0))
    assert x_coefficients(series, offset) == oracle_series(form, offset, 4)


def test_registry_pairwise_products_match_oracle():
    # Truncated products must agree with the series of the product function.
    names = sorted(ORACLE_FORMS)
    budget = Budget(6, 0)
    expanded = {name: central_expand(name, budget) for name in names}
    for a in names:
        for b in names:
            form = ORACLE_FORMS[a][0] * ORACLE_FORMS[b][0]
            offset = ORACLE_FORMS[a][1] + ORACLE_FORMS[b][1]
            product = expanded[a].mul(expanded[b], budget)
            assert x_coefficients(product, offset) == oracle_series(form, offset, 3), (a, b)


# -- frozen expansions -----------------------------------------------------------


def test_eps_series_through_fourth_order():
    series = central_expand("eps", Budget(8, 0))
    assert x_coefficients(series, 1) == {
        0: Fraction(1),
        1: Fraction(1, 2),
        2: Fraction(-1, 8),
        3: Fraction(1, 16),
        4: Fraction(-5, 128),
    }


def test_inv_eps_epsm_through_second_order():
    series = central_expand("inv_eps_epsm", Budget(4, 0))
    assert x_coefficients(series, -2) == {
        0: Fraction(1, 2),
        1: Fraction(-3, 8),
        2: Fraction(5, 16),
    }


def test_inv_eps3_through_first_order():
    series = central_expand("inv_eps3", Budget(2, 0))
    assert x_coefficients(series, -3) == {0: Fraction(1), 1: Fraction(-3, 2)}


def test_eps_spells_x_as_o_pairs():
    assert central_expand("eps", Budget(4, 0)) == AbstractExpr(
        {
            (0, "", 1): Fraction(1),
            (0, "OO", -1): Fraction(1, 2),
            (0, "OOOO", -3): Fraction(-1, 8),
        }
    )


def test_unknown_name_and_bad_order():
    with pytest.raises(KeyError):
        central_expand("epsilon", Budget(2, 0))
    with pytest.raises(ValueError):
        central_expand("eps", Budget(-1, 0))


# -- powers of central series ------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=24
)

SERIES_BUDGET = Budget(8, 0)


@st.composite
def central_series(draw, order=4, constant=rationals):
    """m^offset * sum c_k x^k through x^order, spelled as O-words."""
    offset = draw(st.integers(-4, 4))
    coeffs = {k: draw(rationals) for k in range(1, order + 1)}
    coeffs[0] = draw(constant)
    return AbstractExpr(
        {(0, "O" * (2 * k), offset - 2 * k): c for k, c in coeffs.items()}
    )


@given(central_series(), central_series())
@settings(max_examples=100)
def test_mul_is_commutative_here(a, b):
    assert a.mul(b, SERIES_BUDGET) == b.mul(a, SERIES_BUDGET)


@given(central_series(constant=rationals.filter(bool)))
@settings(max_examples=150)
def test_invert_is_a_right_inverse(a):
    product = a.mul(central_power(a, -1, SERIES_BUDGET), SERIES_BUDGET)
    assert product == AbstractExpr.rational(1)


@given(central_series(constant=rationals.filter(lambda c: c > 0)))
@settings(max_examples=100)
def test_sqrt_of_square_recovers_positive_root(a):
    root = central_power(a.mul(a, SERIES_BUDGET), Fraction(1, 2), SERIES_BUDGET)
    assert root == a


def test_invert_singular_series():
    with pytest.raises(SingularSeriesError):
        central_power(AbstractExpr({(0, "OO", -2): Fraction(1)}), -1, SERIES_BUDGET)


def test_central_power_needs_one_term_without_letters():
    two_constants = AbstractExpr({(0, "", 0): Fraction(1), (0, "", 1): Fraction(1)})
    with pytest.raises(ValueError):
        central_power(two_constants, -1, SERIES_BUDGET)


def test_sqrt_domain_errors():
    half = Fraction(1, 2)
    with pytest.raises(ValueError):
        central_power(AbstractExpr.m_power(1), half, SERIES_BUDGET)  # odd offset
    with pytest.raises(ValueError):
        central_power(AbstractExpr.rational(2), half, SERIES_BUDGET)  # not a rational square
    with pytest.raises(ValueError):
        central_power(AbstractExpr.rational(-1), half, SERIES_BUDGET)


def test_central_power_refuses_beta_constants_and_other_exponents():
    with pytest.raises(ValueError):
        central_power(AbstractExpr.beta(), -1, SERIES_BUDGET)
    with pytest.raises(ValueError):
        central_power(AbstractExpr.rational(8), Fraction(1, 3), SERIES_BUDGET)


def test_binomial_coefficients_at_one_half():
    values = [binomial_coefficient(Fraction(1, 2), k) for k in range(5)]
    assert values == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 8),
        Fraction(1, 16),
        Fraction(-5, 128),
    ]


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
