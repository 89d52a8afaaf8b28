"""Mini-language round-trip and error-position tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fwforge import eriksen, stepwise
from fwforge.lang import ExprSyntaxError, format_expr, format_term, parse_expr
from fwforge.ncalg import (
    AbstractExpr,
    BetaF,
    Budget,
    Comm,
    EpsFun,
    Gen,
    MPow,
    PowN,
    Prod,
    Rat,
    expand,
)
from oracles import format_tree

BIG = Budget(64, 64)


# -- parsing ------------------------------------------------------------------


def test_parse_nested_commutator_structure():
    tree = parse_expr("comm(O, comm(O, E))")
    assert tree == Comm(Gen("O"), Comm(Gen("O"), Gen("E")))


def test_parse_scaled_bracket_power():
    tree = parse_expr("-1/8 * m^-3 * beta * pow(comm(O,E),2)")
    want = expand(
        Prod(
            (
                Rat(Fraction(-1, 8)),
                MPow(-3),
                BetaF(),
                PowN(Comm(Gen("O"), Gen("E")), 2),
            )
        ),
        BIG,
    )
    assert expand(tree, BIG) == want


def test_missing_comma_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("comm(O E)")
    assert info.value.offset == 7
    assert "','" in str(info.value)


def test_unknown_symbol():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("comm(O, Q)")
    assert info.value.offset == 8
    assert "unknown symbol" in str(info.value)


def test_unknown_epsilon_function_name():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("epsfun(bogus)")
    assert info.value.offset == 7
    assert "unknown symbol" in str(info.value)


def test_known_epsilon_function_parses():
    assert parse_expr("epsfun(inv_eps_epsm)") == EpsFun("inv_eps_epsm")


def test_bare_m_needs_a_power():
    with pytest.raises(ExprSyntaxError):
        parse_expr("m * E")


def test_trailing_garbage_rejected():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("O E")
    assert info.value.offset == 2


def test_unexpected_character():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("O @ E")
    assert info.value.offset == 2


def test_subtraction_of_scalars():
    assert expand(parse_expr("5 - 3"), BIG) == AbstractExpr.rational(2)


def test_unary_minus_binds_the_term():
    got = expand(parse_expr("-1/2 m^-1 beta O"), BIG)
    assert got == AbstractExpr({(1, "O", -1): Fraction(-1, 2)})


def test_zero_denominator_rejected_at_the_number():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("E + 1/0 * O")
    assert info.value.offset == 4
    assert "zero denominator" in str(info.value)


def test_pow_rejects_fractional_exponent():
    with pytest.raises(ExprSyntaxError):
        parse_expr("pow(O, 1/2)")


def test_parenthesized_sums_multiply():
    got = expand(parse_expr("(E + O) * (E - O)"), BIG)
    want = AbstractExpr(
        {
            (0, "EE", 0): Fraction(1),
            (0, "EO", 0): Fraction(-1),
            (0, "OE", 0): Fraction(1),
            (0, "OO", 0): Fraction(-1),
        }
    )
    assert got == want


def test_juxtaposition_only_in_coefficient_led_terms():
    # The canonical spaced form parses...
    spaced = expand(parse_expr("2 m^-2 beta O E"), BIG)
    starred = expand(parse_expr("2 * m^-2 * beta * O * E"), BIG)
    assert spaced == starred
    # ...but two bare factors never merge into a product.
    with pytest.raises(ExprSyntaxError):
        parse_expr("beta O")


# -- formatting ----------------------------------------------------------------


def test_format_zero():
    assert format_expr(AbstractExpr.zero()) == "0"


def test_format_coefficient_always_printed():
    assert format_expr(AbstractExpr.generator("O")) == "1 O"
    assert format_expr(AbstractExpr.beta()) == "1 beta"


def test_format_term_layout():
    assert format_term(1, "OEO", -3, Fraction(-5, 16)) == "5/16 m^-3 beta O E O"


def test_format_signs_live_in_joiners():
    expr = AbstractExpr(
        {
            (0, "E", 0): Fraction(-1, 2),
            (0, "OO", -2): Fraction(1, 4),
            (1, "", 1): Fraction(-3),
        }
    )
    assert format_expr(expr) == "-1/2 E + 1/4 m^-2 O O - 3 m^1 beta"


def test_format_canonical_five_word_interior():
    from fwforge.ncalg import Acomm

    expr = expand(Acomm(Gen("O"), Comm(Comm(Gen("O"), Gen("E")), Gen("E"))), BIG)
    assert (
        format_expr(expr)
        == "1 E E O O - 2 E O E O + 2 O E E O - 2 O E O E + 1 O O E E"
    )


# -- round trip ------------------------------------------------------------------

coefficients = st.fractions(
    min_value=Fraction(-32), max_value=Fraction(32), max_denominator=1024
).filter(lambda f: f != 0)


@st.composite
def abstract_exprs(draw):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        beta_exp = draw(st.integers(0, 1))
        word = "".join(draw(st.lists(st.sampled_from("EO"), max_size=5)))
        m_exp = draw(st.integers(-7, 7))
        terms[(beta_exp, word, m_exp)] = draw(coefficients)
    return AbstractExpr(terms)


@given(abstract_exprs())
@settings(max_examples=300)
def test_round_trip_parse_of_format(x):
    assert expand(parse_expr(format_expr(x)), BIG) == x


def test_epsilon_function_round_trip():
    # epsfun nodes expand through the series registry; formatting the
    # expansion and re-parsing must reproduce it.
    budget = Budget(6, 0)
    expr = expand(parse_expr("epsfun(eps)"), budget)
    assert expand(parse_expr(format_expr(expr)), budget) == expr


# -- closed forms --------------------------------------------------------------

CLOSED_FORMS = {
    "eriksen full": eriksen.CLOSED_FORM_ORDER2 + eriksen.CLOSED_FORM_ORDER3,
    "eriksen order2": eriksen.CLOSED_FORM_ORDER2,
    "leading": stepwise.LEADING,
    "iterative": stepwise.ITERATIVE,
    "classical": stepwise.CLASSICAL,
    "displayed": stepwise.DISPLAYED,
    "eprime": stepwise.EPRIME,
    "oprime": stepwise.OPRIME,
    "second step": stepwise.SECOND_STEP,
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_text_round_trips_through_format_tree(name, budget83):
    tree = parse_expr(CLOSED_FORMS[name])
    assert expand(parse_expr(format_tree(tree)), budget83) == expand(tree, budget83)
