"""Tests for the Dirac-matrix concretization layer.

The electrostatic block contents and the uniform-field commutator
channels pinned here were verified by hand against the displayed target
expressions (spin-orbit, Darwin, directional-curvature, squared
power-transfer, and the three uniform-field channels) before freezing.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwforge.concretizer import (
    ELECTROSTATIC,
    MATRIX_BASIS,
    UNIFORM,
    ConcreteExpr,
    MatrixIdentityError,
    QQi,
    _basis_product,
    _EPSILON,
    _m_phase,
    _MONOMIALS,
    _product_table,
    _require_matrices,
    derive_electrostatic,
    field_factor,
    matrix_factor,
    matrix_identity_report,
    momentum,
    term_strings,
    verify_uniform_commutator,
)
from oracles import (
    PAULI_BLOCK_BASIS,
    decompose_matrix,
    inner,
    mat_add,
    mat_mul,
    mat_scale,
    monomial_matrix,
    recompose_matrix,
    scalar_factor,
)


def total(parts):
    return reduce(lambda a, b: a.add(b), parts)


def momentum_squared(mode):
    return total([momentum(mode, axis).mul(momentum(mode, axis)) for axis in range(3)])


# -- matrix representation -----------------------------------------------------------


def fraction_identity_report() -> list[dict]:
    """The 13 representation checks on ``QQi`` matrices of the concretizer's
    basis monomials: the reference that the monomial checks of
    ``matrix_identity_report`` must agree with, on the real basis and on
    corrupted ones."""
    basis = {label: monomial_matrix(monomial) for label, monomial in _MONOMIALS.items()}
    identity = basis["1"]
    zero = mat_scale(identity, QQi.of(0))
    beta = basis["beta"]
    gamma5 = basis["gamma5"]
    sigma = [basis[f"Sigma_{axis}"] for axis in "xyz"]
    alpha = [basis[f"alpha_{axis}"] for axis in "xyz"]
    gamma = [basis[f"gamma_{axis}"] for axis in "xyz"]
    pi_mat = [basis[f"Pi_{axis}"] for axis in "xyz"]

    def pair_product_reduces(mats) -> bool:
        for i in range(3):
            for j in range(3):
                expected = identity if i == j else zero
                for (a, b, k), sign in _EPSILON.items():
                    if (a, b) == (i, j):
                        expected = mat_add(expected, mat_scale(sigma[k], QQi.of(0, sign)))
                if mat_mul(mats[i], mats[j]) != expected:
                    return False
        return True

    def anticommutes(x, y) -> bool:
        return mat_add(mat_mul(x, y), mat_mul(y, x)) == zero

    def commutes(x, y) -> bool:
        return mat_mul(x, y) == mat_mul(y, x)

    def spin_channel(mats, target) -> bool:
        for i in range(3):
            for j in range(3):
                bracket = mat_add(
                    mat_mul(mats[i], pi_mat[j]),
                    mat_scale(mat_mul(pi_mat[j], mats[i]), QQi.of(-1)),
                )
                if bracket != (target if i == j else zero):
                    return False
        return True

    def basis_orthonormal() -> bool:
        return all(
            inner(basis[a], basis[b]) == QQi.of(1 if a == b else 0)
            for a in basis
            for b in basis
        )

    def decomposition_involutive() -> bool:
        rng = random.Random(20240817)
        for _ in range(25):
            matrix = tuple(
                tuple(
                    QQi.of(
                        Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                        Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                    )
                    for _ in range(4)
                )
                for _ in range(4)
            )
            if recompose_matrix(decompose_matrix(matrix, basis), basis) != matrix:
                return False
        return True

    checks = [
        ("beta_squares_to_one", lambda: mat_mul(beta, beta) == identity),
        (
            "beta_anticommutes_with_alpha",
            lambda: all(anticommutes(beta, alpha[i]) for i in range(3)),
        ),
        ("alpha_products_reduce_to_sigma", lambda: pair_product_reduces(alpha)),
        ("sigma_products_reduce_to_sigma", lambda: pair_product_reduces(sigma)),
        ("gamma5_squares_to_one", lambda: mat_mul(gamma5, gamma5) == identity),
        ("gamma5_anticommutes_with_beta", lambda: anticommutes(gamma5, beta)),
        (
            "gamma5_commutes_with_sigma",
            lambda: all(commutes(gamma5, sigma[i]) for i in range(3)),
        ),
        (
            "gamma5_times_sigma_is_minus_alpha",
            lambda: all(
                mat_mul(gamma5, sigma[i]) == mat_scale(alpha[i], QQi.of(-1))
                for i in range(3)
            ),
        ),
        (
            "gamma_is_beta_alpha",
            lambda: all(gamma[i] == mat_mul(beta, alpha[i]) for i in range(3)),
        ),
        (
            "spin_channel_of_alpha_commutator",
            lambda: spin_channel(alpha, mat_scale(basis["beta_gamma5"], QQi.of(2))),
        ),
        (
            "spin_channel_of_gamma_commutator",
            lambda: spin_channel(gamma, mat_scale(gamma5, QQi.of(2))),
        ),
        ("basis_orthonormal_under_trace", basis_orthonormal),
        ("decomposition_involutive_on_random_matrices", decomposition_involutive),
    ]
    return [{"identity": name, "status": "pass" if check() else "fail"} for name, check in checks]


def test_all_representation_identities_pass():
    report = matrix_identity_report()
    assert len(report) == 13
    assert all(row["status"] == "pass" for row in report)
    assert report == fraction_identity_report()
    _require_matrices()


# Each corruption changes one basis monomial; together they fail every
# check.
CORRUPTIONS = {
    "gamma5 negated": (
        "gamma5",
        lambda m: _m_phase(m, 2),
        ["gamma5_times_sigma_is_minus_alpha", "spin_channel_of_gamma_commutator"],
    ),
    "gamma5 times i": (
        "gamma5",
        lambda m: _m_phase(m, 1),
        [
            "gamma5_squares_to_one",
            "gamma5_times_sigma_is_minus_alpha",
            "spin_channel_of_gamma_commutator",
        ],
    ),
    "gamma5 replaced by Sigma_x": (
        "gamma5",
        lambda m: _MONOMIALS["Sigma_x"],
        [
            "gamma5_anticommutes_with_beta",
            "gamma5_commutes_with_sigma",
            "gamma5_times_sigma_is_minus_alpha",
            "spin_channel_of_gamma_commutator",
            "basis_orthonormal_under_trace",
            "decomposition_involutive_on_random_matrices",
        ],
    ),
    "Sigma_y conjugated": (
        "Sigma_y",
        lambda m: (m[0], tuple(-p % 4 for p in m[1])),
        [
            "alpha_products_reduce_to_sigma",
            "sigma_products_reduce_to_sigma",
            "gamma5_times_sigma_is_minus_alpha",
        ],
    ),
    "beta with its first and third rows swapped": (
        "beta",
        lambda m: tuple((row[2], row[1], row[0], row[3]) for row in m),
        [
            "beta_squares_to_one",
            "beta_anticommutes_with_alpha",
            "gamma_is_beta_alpha",
            "basis_orthonormal_under_trace",
            "decomposition_involutive_on_random_matrices",
        ],
    ),
    "Pi_z replaced by the identity": (
        "Pi_z",
        lambda m: _MONOMIALS["1"],
        [
            "spin_channel_of_alpha_commutator",
            "spin_channel_of_gamma_commutator",
            "basis_orthonormal_under_trace",
            "decomposition_involutive_on_random_matrices",
        ],
    ),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_integer_checks_agree_with_fraction_checks_on_a_corrupted_basis(case, monkeypatch):
    label, corrupt, failing = CORRUPTIONS[case]
    monkeypatch.setitem(_MONOMIALS, label, corrupt(_MONOMIALS[label]))
    report = matrix_identity_report()
    assert report == fraction_identity_report()
    assert [row["identity"] for row in report if row["status"] == "fail"] == failing
    with pytest.raises(MatrixIdentityError) as raised:
        _require_matrices()
    assert str(raised.value) == "representation identities failed: " + ", ".join(failing)


def test_basis_has_sixteen_orthonormal_elements():
    assert len(MATRIX_BASIS) == 16
    assert list(MATRIX_BASIS)[:4] == ["1", "beta", "gamma5", "beta_gamma5"]


def test_basis_is_the_pauli_block_construction():
    assert list(MATRIX_BASIS.items()) == list(PAULI_BLOCK_BASIS.items())


def test_single_channel_products():
    assert decompose_matrix(mat_mul(MATRIX_BASIS["alpha_x"], MATRIX_BASIS["Pi_x"])) == {
        "beta_gamma5": QQi.of(1)
    }
    assert decompose_matrix(mat_mul(MATRIX_BASIS["gamma_x"], MATRIX_BASIS["Pi_x"])) == {
        "gamma5": QQi.of(1)
    }
    assert decompose_matrix(
        mat_mul(MATRIX_BASIS["alpha_x"], MATRIX_BASIS["alpha_y"])
    ) == {"Sigma_z": QQi.of(0, 1)}


def test_structure_constants_match_the_matrix_products():
    for left in MATRIX_BASIS:
        for right in MATRIX_BASIS:
            [item] = decompose_matrix(mat_mul(MATRIX_BASIS[left], MATRIX_BASIS[right])).items()
            assert _basis_product(left, right) == item


def test_a_product_outside_the_basis_is_refused(monkeypatch):
    # the permutation matrix swapping only the first two components
    monkeypatch.setitem(_MONOMIALS, "Sigma_x", ((1, 0, 2, 3), (0, 0, 0, 0)))
    with pytest.raises(ValueError, match="Sigma_x @ beta is not a basis element"):
        _basis_product("Sigma_x", "beta")


def test_product_table_refuses_labels_equal_up_to_a_phase():
    assert len(_product_table(_MONOMIALS)) == 64
    basis = dict(_MONOMIALS, gamma5=_m_phase(_MONOMIALS["Sigma_x"], 3))
    with pytest.raises(ValueError, match="gamma5 and Sigma_x agree up to a phase"):
        _product_table(basis)


PHASES = (QQi.of(1), QQi.of(-1), QQi.of(0, 1), QQi.of(0, -1))


@pytest.mark.parametrize("left", list(MATRIX_BASIS))
def test_basis_is_closed_under_products_up_to_a_phase(left):
    for right in MATRIX_BASIS:
        product = matrix_factor(ELECTROSTATIC, left).mul(matrix_factor(ELECTROSTATIC, right))
        [((label, eps, scalars, word), phase)] = product.terms()
        assert (eps, scalars, word) == ("", (), ())
        assert phase in PHASES
        assert recompose_matrix({label: phase}) == mat_mul(
            MATRIX_BASIS[left], MATRIX_BASIS[right]
        )


@st.composite
def gaussian_matrices(draw):
    fractions = st.fractions(
        min_value=-20, max_value=20, max_denominator=8
    )
    return tuple(
        tuple(
            QQi(draw(fractions), draw(fractions))
            for _ in range(4)
        )
        for _ in range(4)
    )


@given(matrix=gaussian_matrices())
@settings(max_examples=60, deadline=None)
def test_decompose_recompose_is_the_identity(matrix):
    assert recompose_matrix(decompose_matrix(matrix)) == matrix


# -- normal ordering -----------------------------------------------------------------


def test_momentum_past_potential_emits_one_derivative():
    expr = momentum(ELECTROSTATIC, 0).mul(field_factor(ELECTROSTATIC))
    assert term_strings(expr.normal_order()) == ["1 Phi p_x", "-i hbar Phi_x"]


def test_momentum_squared_commutator_with_potential():
    bracket = momentum_squared(ELECTROSTATIC).commutator(field_factor(ELECTROSTATIC))
    assert term_strings(bracket.normal_order()) == [
        "-2*i hbar Phi_z p_z",
        "-2*i hbar Phi_y p_y",
        "-2*i hbar Phi_x p_x",
        "-1 hbar^2 Phi_zz",
        "-1 hbar^2 Phi_yy",
        "-1 hbar^2 Phi_xx",
    ]


def test_kinetic_momenta_do_not_commute_in_uniform_mode():
    forward = momentum(UNIFORM, 0).commutator(momentum(UNIFORM, 1))
    backward = momentum(UNIFORM, 1).commutator(momentum(UNIFORM, 0))
    assert term_strings(forward.normal_order()) == ["i e hbar B_z"]
    assert term_strings(backward.normal_order()) == ["-i e hbar B_z"]
    assert momentum(ELECTROSTATIC, 0).commutator(
        momentum(ELECTROSTATIC, 1)
    ).normal_order().is_zero()


def test_uniform_mode_derivative_is_a_central_component():
    expr = momentum(UNIFORM, 2).mul(field_factor(UNIFORM))
    assert term_strings(expr.normal_order()) == ["1 Phi p_z", "i hbar E_z"]


def test_canonical_words_are_fixed_points():
    expr = field_factor(ELECTROSTATIC, (1, 0, 0)).mul(momentum(ELECTROSTATIC, 1))
    assert expr.normal_order() == expr


@st.composite
def raw_expressions(draw):
    mode = draw(st.sampled_from([ELECTROSTATIC, UNIFORM]))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        factors = []
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            if draw(st.booleans()):
                factors.append(momentum(mode, draw(st.integers(0, 2))))
            elif mode == ELECTROSTATIC:
                multi = tuple(
                    draw(st.integers(0, 1)) for _ in range(3)
                )
                factors.append(field_factor(mode, multi))
            else:
                factors.append(field_factor(mode))
        coeff = QQi.of(
            draw(st.fractions(min_value=-4, max_value=4, max_denominator=4)),
            draw(st.fractions(min_value=-4, max_value=4, max_denominator=4)),
        )
        base = scalar_factor(mode, coeff)
        terms.append(reduce(lambda a, b: a.mul(b), factors, base))
    return total(terms)


@given(expr=raw_expressions())
@settings(max_examples=60, deadline=None)
def test_normal_order_is_idempotent_and_hbar_monotone(expr):
    ordered = expr.normal_order()
    assert ordered.normal_order() == ordered
    # swaps only ever add powers of hbar
    for (_, _, scalars, _), _ in ordered.terms():
        exponents = dict(scalars)
        assert exponents.get("hbar", 0) >= 0


@given(first=raw_expressions(), second=raw_expressions())
@settings(max_examples=40, deadline=None)
def test_normal_order_is_linear(first, second):
    if first.mode != second.mode:
        return
    combined = first.add(second).normal_order()
    assert combined == first.normal_order().add(second.normal_order())


# -- expression plumbing ---------------------------------------------------------------


def test_mode_mixing_is_rejected():
    with pytest.raises(ValueError):
        momentum(ELECTROSTATIC, 0).add(momentum(UNIFORM, 0))


def test_unknown_names_are_rejected():
    with pytest.raises(ValueError):
        matrix_factor(ELECTROSTATIC, "delta")
    with pytest.raises(ValueError):
        scalar_factor(ELECTROSTATIC, 1, q=2)
    with pytest.raises(ValueError):
        momentum(ELECTROSTATIC, 3)
    with pytest.raises(ValueError):
        field_factor(UNIFORM, (1, 0, 0))
    with pytest.raises(ValueError):
        ConcreteExpr.zero("mixed")


def test_split_hbar_partitions_the_expression():
    expr = momentum_squared(ELECTROSTATIC).commutator(
        field_factor(ELECTROSTATIC)
    ).normal_order()
    low, high = expr.split_hbar(1)
    assert low.add(high) == expr
    assert all(dict(key[2]).get("hbar", 0) <= 1 for key, _ in low.terms())
    assert all(dict(key[2]).get("hbar", 0) > 1 for key, _ in high.terms())


# -- electrostatic derivation ----------------------------------------------------------


@pytest.fixture(scope="module")
def electrostatic_report():
    return derive_electrostatic()


def test_electrostatic_derivation_passes(electrostatic_report):
    report = electrostatic_report
    assert report["status"] == "pass"
    assert report["hbar_max"] == 2
    assert report["inputs"] == {"O": "alpha . p", "E": "e Phi"}
    assert report["leading"] == ["beta f(eps)", "e Phi"]
    assert [block["prefactor"] for block in report["blocks"]] == [
        "inv_eps_epsm",
        "quartic_kernel",
        "inv_eps3",
        "inv_eps5",
    ]
    assert [block["weight"] for block in report["blocks"]] == [
        "-1/8",
        "1/64",
        "-1/16",
        "1/64",
    ]
    assert [block["beta"] for block in report["blocks"]] == [0, 0, 1, 1]
    assert all(block["status"] == "match" for block in report["blocks"])
    assert all(block["residual"] == [] for block in report["blocks"])


def test_spin_orbit_and_darwin_block(electrostatic_report):
    block = electrostatic_report["blocks"][0]
    assert block["source"] == "comm(O, comm(O, E))"
    terms = {(t["matrix"], t["word"]): (t["coeff"], t["scalars"]) for t in block["terms"]}
    assert len(terms) == 9
    # spin-orbit channel, one power of hbar
    assert terms[("Sigma_z", "Phi_y p_x")] == ("2", "e hbar")
    assert terms[("Sigma_z", "Phi_x p_y")] == ("-2", "e hbar")
    assert terms[("Sigma_x", "Phi_z p_y")] == ("2", "e hbar")
    # Darwin channel, two powers of hbar
    for axis in ("xx", "yy", "zz"):
        assert terms[("1", f"Phi_{axis}")] == ("-1", "e hbar^2")
    # the first block agrees with its encoded form at every hbar power
    assert block["higher_order"] == []


def test_directional_curvature_block(electrostatic_report):
    block = electrostatic_report["blocks"][1]
    terms = {t["word"]: t["coeff"] for t in block["terms"]}
    assert len(terms) == 6
    assert terms["Phi_xx p_x p_x"] == "-4"
    assert terms["Phi_xy p_x p_y"] == "-8"
    assert all(t["scalars"] == "e hbar^2" for t in block["terms"])
    assert all(t["matrix"] == "1" for t in block["terms"])
    # the displayed form leaves the operator ordering open; the ordering
    # remainder is reported at hbar^3 and hbar^4, never compared
    assert len(block["higher_order"]) == 15
    assert "4*i e hbar^3 Phi_xxx p_x" in block["higher_order"]
    assert "1 e hbar^4 Phi_xxxx" in block["higher_order"]
    assert "2 e hbar^4 Phi_xxyy" in block["higher_order"]


def test_field_squared_block(electrostatic_report):
    block = electrostatic_report["blocks"][2]
    assert block["beta"] == 1
    assert {t["word"] for t in block["terms"]} == {
        "Phi_x Phi_x",
        "Phi_y Phi_y",
        "Phi_z Phi_z",
    }
    assert all(t["coeff"] == "-1" and t["scalars"] == "e^2 hbar^2" for t in block["terms"])
    assert block["higher_order"] == []


def test_power_transfer_block(electrostatic_report):
    block = electrostatic_report["blocks"][3]
    terms = {t["word"]: t["coeff"] for t in block["terms"]}
    assert len(terms) == 6
    assert terms["Phi_x Phi_x p_x p_x"] == "-4"
    assert terms["Phi_y Phi_x p_x p_y"] == "-8"
    assert all(t["scalars"] == "e^2 hbar^2" for t in block["terms"])
    assert block["higher_order"] == []


def hbar_power(text):
    """The power of hbar in a rendered term or scalar product, such as
    "e hbar^2"."""
    for factor in text.split():
        name, _, power = factor.partition("^")
        if name == "hbar":
            return int(power or 1)
    return 0


def test_constant_potential_leaves_only_the_leading_terms(electrostatic_report):
    """Every derived term carries a field derivative, so for a constant
    potential only the leading terms remain."""
    assert electrostatic_report["leading"] == ["beta f(eps)", "e Phi"]
    for block in electrostatic_report["blocks"]:
        words = [t["word"] for t in block["terms"]] + block["higher_order"]
        assert words
        for word in words:
            assert any(factor.startswith("Phi_") for factor in word.split()), word


def test_deeper_truncation_exposes_the_ordering_remainder(electrostatic_report):
    """Only the quartic kernel holds terms past hbar^2, all 15 at hbar^3 or
    hbar^4: a deeper cut would compare exactly those and match the rest."""
    by_name = {block["prefactor"]: block for block in electrostatic_report["blocks"]}
    deeper = by_name["quartic_kernel"]["higher_order"]
    assert len(deeper) == 15
    assert all(hbar_power(term) in (3, 4) for term in deeper)
    for name in ("inv_eps_epsm", "inv_eps3", "inv_eps5"):
        assert by_name[name]["higher_order"] == []


def test_spin_orbit_is_the_only_first_order_content(electrostatic_report):
    blocks = electrostatic_report["blocks"]
    first_order = [
        [t for t in block["terms"] if hbar_power(t["scalars"]) <= 1] for block in blocks
    ]
    assert [len(terms) for terms in first_order] == [6, 0, 0, 0]
    assert all(
        term["scalars"] == "e hbar" and term["matrix"].startswith("Sigma")
        for term in first_order[0]
    )


# -- uniform-field commutator ----------------------------------------------------------


def test_uniform_commutator_closes_on_three_channels():
    report = verify_uniform_commutator()
    assert report["status"] == "match"
    assert report["residual"] == []
    assert report["commutator"] == report["expected"]
    assert report["commutator"] == [
        "-2*i mu'^2 E_x B_x gamma5",
        "-2*i mu'^2 E_y B_y gamma5",
        "-2*i mu'^2 E_z B_z gamma5",
        "-2 mu' B_x beta_gamma5 p_x",
        "-2 mu' B_y beta_gamma5 p_y",
        "-2 mu' B_z beta_gamma5 p_z",
        "i e hbar E_x alpha_x",
        "i e hbar E_y alpha_y",
        "i e hbar E_z alpha_z",
    ]
