"""Tests for the single-step exact transformation pipeline.

The transformed Hamiltonian, its defining identities, and the encoded
closed-form series are checked against independently derived values:
the quartic-class weights were solved from the defining constraints
(rank-6 linear system over the six quartic brackets) and cross-checked
by a high-precision numeric matrix transform before being frozen here.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from fwforge.eriksen import (
    CLOSED_FORM_ORDER2,
    compare_to_reference,
    in_reference_scope,
    reference_target,
    report_from_state,
    run_pipeline,
    verify_properties,
)
from fwforge.lang import parse_expr
from fwforge.ncalg import (
    AbstractExpr,
    Acomm,
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
    expand,
    parity_and_order,
)
from oracles import restrict_class

O = Gen("O")
E = Gen("E")
O2 = PowN(O, 2)


def sc(q, *factors):
    return Prod((Rat(Fraction(q)),) + tuple(factors))


def quartic_brackets():
    """The six quartic-class brackets in display order."""
    return (
        Acomm(O2, PowN(Comm(O, E), 2)),
        PowN(Comm(O2, E), 2),
        Acomm(O2, Comm(Comm(O2, E), E)),
        Comm(O, Comm(O, Comm(Comm(O2, E), E))),
        Comm(Comm(O, Comm(O, Comm(O2, E))), E),
        Comm(O2, Comm(O, Comm(Comm(O, E), E))),
    )


def weighted_quartic(weights, budget):
    combo = Sum(
        tuple(sc(w, b) for w, b in zip(weights, quartic_brackets()) if w)
    )
    return expand(Prod((Rat(Fraction(1, 256)), MPow(-5), BetaF(), combo)), budget)


# -- pipeline identities ---------------------------------------------------------


def test_all_defining_identities_pass(state83):
    report = report_from_state(state83)
    assert [row["identity"] for row in report] == [
        "involution_squares_to_one",
        "beta_sandwiches_commute",
        "symmetrized_sandwich_is_even",
        "transform_is_unitary",
        "transform_intertwines_beta",
        "radicand_commutes_with_factor",
    ]
    assert all(row["status"] == "pass" for row in report)
    assert all(row["residual_classes"] == [] for row in report)


def test_verify_properties_small_budget():
    report = verify_properties(Budget(5, 2))
    assert all(row["status"] == "pass" for row in report)


def test_mutated_transform_fails_intertwining():
    state = run_pipeline(Budget(6, 2))
    # Corrupt one coefficient of the transform (homogeneity-preserving).
    poison = AbstractExpr.from_terms([((0, "O", -1), Fraction(1, 1000))])
    mutated = replace(state, U=state.U.add(poison), U_dag=state.U.add(poison).adjoint())
    report = {row["identity"]: row for row in report_from_state(mutated)}
    broken = report["transform_intertwines_beta"]
    assert broken["status"] == "fail"
    assert broken["lowest_class"] == [0, 1]
    assert broken["residual_classes"][0]["terms"]


# -- homogeneity and structure ---------------------------------------------------


@pytest.mark.parametrize(
    "stage, degree",
    [("H", 1), ("H2", 2), ("x_series", 0), ("inv_sqrt", 0), ("lam", 0), ("U", 0), ("H_FW", 1)],
)
def test_homogeneity_per_stage(state83, stage, degree):
    expr = getattr(state83, stage)
    for (_, word, m_exp), _ in expr.terms():
        assert len(word) + m_exp == degree


def test_result_is_even_and_self_adjoint(eriksen83):
    for (_, word, _), _ in eriksen83.terms():
        assert (len(word) - word.count("E")) % 2 == 0
    assert eriksen83.adjoint().sub(eriksen83).is_zero()


def test_pure_even_classes_vanish(eriksen83):
    classes = eriksen83.classify()
    assert all(o_count > 0 for (e_count, o_count) in classes if e_count >= 2)


# -- degenerate inputs -----------------------------------------------------------
#
# Setting a letter to zero is a ring map that commutes with budget truncation,
# so the terms of the full run without that letter are the run without it.


def without(expr, letter):
    """The terms of `expr` whose word lacks `letter`."""
    return AbstractExpr({key: coeff for key, coeff in expr.terms() if letter not in key[1]})


@pytest.fixture(scope="module")
def budget_ladder(state83):
    return [run_pipeline(Budget(6, 2)), state83, run_pipeline(Budget(10, 4))]


def test_without_odd_part_transform_is_identity(budget_ladder):
    expected = AbstractExpr.beta().shift_m(1).add(AbstractExpr.generator("E"))
    for state in budget_ladder:
        assert without(state.H_FW, "O").sub(expected).is_zero(), state.budget
        assert without(state.U, "O").sub(AbstractExpr.rational(1)).is_zero(), state.budget


def test_without_even_part_result_is_energy_series(budget_ladder, eriksen83):
    for state in budget_ladder:
        series = expand(Prod((BetaF(), EpsFun("eps"))), state.budget)
        assert without(state.H_FW, "E").sub(series).is_zero(), state.budget
    h = without(eriksen83, "E")
    # spot-check the displayed coefficients through eight letters
    expected = {
        ("", 1): Fraction(1),
        ("OO", -1): Fraction(1, 2),
        ("OOOO", -3): Fraction(-1, 8),
        ("OOOOOO", -5): Fraction(1, 16),
        ("OOOOOOOO", -7): Fraction(-5, 128),
    }
    actual = {
        (word, m_exp): coeff for (beta, word, m_exp), coeff in h.terms() if beta == 1
    }
    assert actual == expected


def test_minimal_budget_rejected():
    with pytest.raises(ValueError):
        run_pipeline(Budget(0, 0))


def test_pipeline_holds_every_stage_to_the_term_cap():
    with pytest.raises(BudgetOverflowError) as small:
        run_pipeline(Budget(8, 3, term_cap=10))
    assert small.value.path == "run_pipeline.inv_sqrt.power[2]"

    # The largest intermediate at (6,2) is lambda, 61 terms (U ties it): a
    # cap one below stops there, and a cap equal to it lets the run finish.
    state = run_pipeline(Budget(6, 2))
    peak = len(state.lam)
    with pytest.raises(BudgetOverflowError) as tight:
        run_pipeline(Budget(6, 2, term_cap=peak - 1))
    assert (tight.value.path, tight.value.count) == ("run_pipeline.lam", 61)
    assert run_pipeline(Budget(6, 2, term_cap=peak)).H_FW == state.H_FW


# -- closed-form reference -------------------------------------------------------


def test_reference_one_e_two_o_coefficient(budget83):
    target = expand(parse_expr(CLOSED_FORM_ORDER2), budget83)
    bracket = expand(sc(Fraction(-1, 8), MPow(-2), Comm(O, Comm(O, E))), budget83)
    assert restrict_class(target, 1, 2).sub(bracket).is_zero()


def test_reference_full_minus_order2_is_the_dropped_block(budget83):
    full = expand(reference_target(), budget83)
    order2 = expand(parse_expr(CLOSED_FORM_ORDER2), budget83)
    b = quartic_brackets()
    expected = expand(
        Sum(
            (
                sc(Fraction(-1, 32), MPow(-4), Comm(O, Comm(Comm(Comm(O, E), E), E))),
                sc(Fraction(11, 1024), MPow(-6), Comm(O2, Comm(O2, Comm(O, Comm(O, E))))),
                Prod(
                    (
                        Rat(Fraction(1, 256)),
                        MPow(-5),
                        BetaF(),
                        Sum((sc(-4, b[3]), sc(Fraction(9, 2), b[4]), sc(Fraction(5, 2), b[5]))),
                    )
                ),
            )
        ),
        budget83,
    )
    assert full.sub(order2).sub(expected).is_zero()


def test_dropped_brackets_all_have_grading_order_three():
    b = quartic_brackets()
    dropped = [
        Comm(O, Comm(Comm(Comm(O, E), E), E)),
        Comm(O2, Comm(O2, Comm(O, Comm(O, E)))),
        b[3],
        b[4],
        b[5],
    ]
    for tree in dropped:
        parity, order = parity_and_order(tree)
        assert (parity, order) == ("even", 3)


# -- derived series vs the encoded display ---------------------------------------


def test_shallow_classes_match_reference(eriksen83, budget83):
    target = expand(reference_target(), budget83)
    for klass in [(0, 2), (0, 4), (0, 6), (0, 8), (1, 2), (1, 4), (1, 6), (2, 2), (3, 2)]:
        mine = restrict_class(eriksen83, *klass)
        assert mine.sub(restrict_class(target, *klass)).is_zero(), klass
        assert not mine.is_zero(), klass


def test_quartic_class_true_weights(eriksen83, budget83):
    """The derived quartic class carries the solved weights, which differ
    from the encoded display by a rank-deficient hand rewrite."""
    true = weighted_quartic(
        (24, -20, -14, -4, 9, -2),
        budget83,
    )
    assert restrict_class(eriksen83, 2, 4).sub(true).is_zero()


def test_display_quartic_weights_differ_by_frozen_combination(eriksen83, budget83):
    display = weighted_quartic(
        (24, -11, -14, -4, Fraction(9, 2), Fraction(5, 2)),
        budget83,
    )
    delta = restrict_class(eriksen83, 2, 4).sub(display)
    assert not delta.is_zero()
    # derived minus display == -(9/512) m^-5 beta (2 b2 - b5 + b6)
    b = quartic_brackets()
    expected = expand(
        Prod(
            (
                Rat(Fraction(-9, 512)),
                MPow(-5),
                BetaF(),
                Sum((sc(2, b[1]), sc(-1, b[4]), sc(1, b[5]))),
            )
        ),
        budget83,
    )
    assert delta.sub(expected).is_zero()


def test_compare_to_reference_report(budget83):
    report = compare_to_reference(budget83)
    assert report["status"] == "fail"
    assert [(c["e"], c["o"]) for c in report["residual_classes"]] == [(2, 4)]
    assert report["residual_classes"][0]["terms"]
    # deeper content than the display covers is reported, never failed
    assert sorted((c["e"], c["o"]) for c in report["extra_classes"]) == [(2, 6), (3, 4)]
    assert all(
        not in_reference_scope(c["e"], c["o"]) for c in report["extra_classes"]
    )
    assert report["budget"] == {"max_word_len": 8, "max_e_count": 3}
