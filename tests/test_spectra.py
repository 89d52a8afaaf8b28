"""Landau-level spectra: model building, interior filtering, closed forms, scans."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from fwforge import spectra
from fwforge.spectra import (
    REPRESENTATIONS,
    InsufficientInteriorError,
    InvalidModelError,
    SpectralModel,
    SquareRootDomainError,
    amm_linearity_scan,
    build_model_matrix,
    closed_form_energy,
    compare_closed_form,
    correction_residual_scan,
    hermitian_sqrt,
    interior_spectrum,
    operator_relation_check,
    report_json,
)


# -- model validation -----------------------------------------------------------------


def test_valid_models_construct():
    SpectralModel("spin0", "fw", B=0.5)
    SpectralModel("spin12", "original", B=0.5, g=2.3)
    SpectralModel("spin12", "fw", e=-1.0, B=0.5)
    SpectralModel("spin1", "original", B=0.25)
    SpectralModel("spin1", "fw", B=0.25)
    SpectralModel("spin1", "fw_corrected", B=0.25, g=2.5)


@pytest.mark.parametrize(
    "particle, representation",
    [
        ("spin0", "original"),
        ("spin0", "fw_corrected"),
        ("spin12", "fw_corrected"),
        ("spin1", "nope"),
        ("scalar", "fw"),
    ],
)
def test_invalid_particle_representation_combinations(particle, representation):
    with pytest.raises(InvalidModelError):
        SpectralModel(particle, representation)


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidModelError):
        SpectralModel("spin1", "fw", B=-0.1)
    with pytest.raises(InvalidModelError):
        SpectralModel("spin1", "fw", N=7)
    with pytest.raises(InvalidModelError):
        SpectralModel("spin1", "fw", m=0.0)
    with pytest.raises(InvalidModelError):
        SpectralModel("spin1", "fw", hbar=-1.0)


def test_spin12_mass_lost_to_rounding_is_rejected():
    with pytest.raises(InvalidModelError, match=r"m = 1e-150 .* \|e\| hbar B = 0.5"):
        SpectralModel("spin12", "fw", m=1e-150, B=0.5)
    with pytest.raises(InvalidModelError, match="m = 1e-150"):
        SpectralModel("spin12", "original", m=1e-150, e=-1.0, B=0.5)
    # spin 1 keeps its own checks, and a splitting that overflows is left
    # to the overflow error
    SpectralModel("spin1", "fw", m=1e-150, B=0.5)
    SpectralModel("spin12", "fw", m=1.0, hbar=1e10, B=1e300)
    SpectralModel("spin12", "fw", m=1e-8, B=0.5)


def test_edge_level_counts():
    assert SpectralModel("spin0", "fw").edge_levels == 2
    assert SpectralModel("spin12", "fw").edge_levels == 2
    assert SpectralModel("spin1", "fw").edge_levels == 4


# -- matrix structure -----------------------------------------------------------------


def test_spin0_field_free_is_diagonal_plus_minus_mass():
    matrix = build_model_matrix(SpectralModel("spin0", "fw", B=0.0, N=16))
    off_diagonal = matrix - np.diag(np.diag(matrix))
    assert np.abs(off_diagonal).max() == 0.0
    assert sorted(set(np.round(np.diag(matrix).real, 12))) == [-1.0, 1.0]


@pytest.mark.parametrize(
    "particle, representation, g",
    [
        ("spin0", "fw", 2.0),
        ("spin12", "fw", 2.3),
        ("spin1", "fw", 2.3),
        ("spin1", "fw_corrected", 2.5),
    ],
)
def test_block_diagonal_forms_are_hermitian(particle, representation, g):
    matrix = build_model_matrix(
        SpectralModel(particle, representation, B=0.2, g=g, N=32)
    )
    assert np.abs(matrix - matrix.conj().T).max() < 1e-14


def test_six_component_form_is_not_hermitian_but_interior_is_real():
    model = SpectralModel("spin1", "original", B=0.25, g=2.0, N=64)
    matrix = build_model_matrix(model)
    assert np.abs(matrix - matrix.conj().T).max() > 1.0
    report = compare_closed_form(model)
    assert report["max_interior_imag"] < 1e-10


def test_square_root_rejects_non_positive_operand():
    with pytest.raises(SquareRootDomainError) as excinfo:
        build_model_matrix(SpectralModel("spin1", "fw", B=1.2, g=2.0, N=32))
    assert excinfo.value.min_eigenvalue == pytest.approx(-0.2, abs=1e-9)
    assert "minimum eigenvalue" in str(excinfo.value)


def test_hermitian_sqrt_squares_back():
    rng = np.random.default_rng(7)
    positive = np.diag(rng.uniform(0.5, 12.0, size=12)).astype(complex)
    root = hermitian_sqrt(positive)
    assert np.abs(root @ root - positive).max() < 1e-10


def test_hermitian_sqrt_rejects_non_diagonal_input():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    positive = raw @ raw.conj().T + 12.0 * np.eye(12)
    with pytest.raises(ValueError, match="off-diagonal"):
        hermitian_sqrt(positive)
    with pytest.raises(ValueError, match="complex diagonal"):
        hermitian_sqrt(np.diag([2.0, 1.0 + 1e-12j]))


def _dense_sqrt(matrix):
    values, vectors = np.linalg.eigh(matrix)
    return (vectors * np.sqrt(values)) @ vectors.conj().T


@pytest.mark.parametrize(
    "particle, representation",
    [("spin0", "fw"), ("spin12", "fw"), ("spin1", "fw"), ("spin1", "fw_corrected")],
)
@pytest.mark.parametrize("e", [1.0, -1.0])
@pytest.mark.parametrize("field", [0.0, 0.3, 0.5])
def test_diagonal_sqrt_matches_dense_eigh(particle, representation, e, field, monkeypatch):
    """Every builder's radicand is diagonal, and its entry-by-entry root
    builds the matrix a dense eigendecomposition builds."""
    model = SpectralModel(particle, representation, e=e, B=field, g=2.3, N=64)
    matrix = build_model_matrix(model)
    monkeypatch.setattr(spectra, "hermitian_sqrt", _dense_sqrt)
    dense = build_model_matrix(model)
    assert np.abs(matrix - dense).max() <= 1e-12 * np.abs(dense).max()


def _corrected_with_inverse(model, levels):
    """The spin-1 `fw_corrected` operator with its kernel taken by a dense
    inverse and applied by matrix products."""
    kernels = spectra._spin1_kernels(model, levels)
    m, hbar, e, B, g = model.m, model.hbar, model.e, model.B, model.g
    radicand = (
        m * m * kernels["eye"]
        + kernels["pi_sq_full"]
        - 2.0 * e * hbar * B * kernels["s_z_full"]
        - (e * e * hbar * hbar * g * (g - 2.0) * B * B / (4.0 * m * m)) * kernels["s_z_sq_full"]
    )
    root = hermitian_sqrt(radicand)
    kernel = np.linalg.inv(root @ root + m * root)
    cross = spectra._kron(kernels["pi_y"], kernels["s_x"]) - spectra._kron(
        kernels["pi_x"], kernels["s_y"]
    )
    core = (
        B * B * kernels["spin_momentum"] @ kernels["spin_momentum"]
        - B * B * cross @ cross
        - e * hbar * (g - 1.0) * B**3 * kernels["s_z_full"]
    )
    weight = e * e * hbar * hbar * (g - 1.0) * (g - 2.0) / (16.0 * m**3)
    inner = (
        root
        - spectra._spin1_amm(model) * kernels["s_z_full"]
        + weight * (kernel @ core + core @ kernel)
    )
    return spectra._kron(inner, spectra._rho_matrices()[2])


@pytest.mark.parametrize("e", [1.0, -1.0])
@pytest.mark.parametrize("field", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("g", [2.3, 3.9])
def test_corrected_kernel_matches_the_dense_inverse(e, field, g):
    """The broadcast kernel of the spin-1 corrected form builds the windows
    that the dense inverse and the two products build."""
    model = SpectralModel("spin1", "fw_corrected", e=e, B=field, g=g, N=16)
    levels = np.arange(12)[:, None] + np.arange(5)
    stack = build_model_matrix(model, levels=levels)
    want = _corrected_with_inverse(model, levels)
    assert stack.shape == want.shape == (12, 30, 30)
    for window, expected in zip(stack, want):
        assert np.abs(window - expected).max() <= 1e-12 * np.abs(expected).max()


# -- closed-form spectra ----------------------------------------------------------------


def test_spin0_closed_forms_across_field_strengths():
    for field in (0.01, 0.1, 0.5, 1.0):
        report = compare_closed_form(SpectralModel("spin0", "fw", B=field, N=128))
        assert report["status"] == "pass"
        assert report["max_interior_residual"] < 1e-12


def test_spin0_explicit_low_levels():
    values = sorted(
        v for v in interior_spectrum(SpectralModel("spin0", "fw", B=0.5, N=64)) if v > 0
    )
    for index in range(3):
        expected = math.sqrt(1.5 + index)
        assert abs(values[index] - expected) / expected < 1e-10


@pytest.mark.parametrize("representation", ["original", "fw"])
@pytest.mark.parametrize("g", [2.0, 2.35])
@pytest.mark.parametrize("charge", [1.0, -1.0])
def test_spin12_closed_forms_both_representations_and_signs(representation, g, charge):
    model = SpectralModel("spin12", representation, e=charge, B=0.3, g=g, N=96)
    report = compare_closed_form(model)
    assert report["status"] == "pass"
    assert report["max_interior_residual"] < 1e-10
    assert report["max_interior_imag"] < 1e-10


def test_spin12_block_diagonal_unit_eigenvalue():
    values = interior_spectrum(SpectralModel("spin12", "fw", B=0.5, g=2.0, N=64))
    closest = min(values, key=lambda v: abs(v - 1.0))
    assert closest == pytest.approx(1.0, abs=1e-12)


def test_spin12_lowest_level_and_label_convention():
    model = SpectralModel("spin12", "fw", e=1.0, B=0.3, g=2.35, N=32)
    report = compare_closed_form(model)
    positive = [
        entry
        for entry in report["eigenvalues"]
        if entry["interior"] and entry["value"] > 0
    ]
    lowest = positive[0]
    assert lowest["value"] == pytest.approx(0.97375, abs=1e-12)
    assert (lowest["matched_n"], lowest["matched_lambda"]) == (0, 1)
    assert closed_form_energy(model, 0, 1) == pytest.approx(0.97375, abs=1e-15)
    # Flipping the charge sign flips the spin-projection label that fits;
    # the matcher searches the label rather than assuming a convention.
    flipped = SpectralModel("spin12", "fw", e=-1.0, B=0.3, g=2.35, N=32)
    report_flipped = compare_closed_form(flipped)
    lowest_flipped = next(
        entry
        for entry in report_flipped["eigenvalues"]
        if entry["interior"] and entry["value"] > 0
    )
    assert lowest_flipped["value"] == pytest.approx(0.97375, abs=1e-12)
    assert lowest_flipped["matched_lambda"] == -1


@pytest.mark.parametrize("representation", ["original", "fw"])
@pytest.mark.parametrize("charge", [1.0, -1.0])
def test_spin1_closed_forms_at_g_two(representation, charge):
    model = SpectralModel("spin1", representation, e=charge, B=0.25, g=2.0, N=128)
    report = compare_closed_form(model)
    assert report["status"] == "pass"
    assert report["max_interior_residual"] < 1e-10
    assert report["max_interior_imag"] < 1e-10


def test_spin1_lowest_levels_cover_all_three_projections():
    model = SpectralModel("spin1", "original", e=1.0, B=0.25, g=2.0, N=32)
    report = compare_closed_form(model)
    positive = [
        entry
        for entry in report["eigenvalues"]
        if entry["interior"] and entry["value"] > 0
    ]
    assert positive[0]["value"] == pytest.approx(math.sqrt(0.75), abs=1e-10)
    assert positive[0]["matched_lambda"] == 1
    assert positive[1]["value"] == pytest.approx(math.sqrt(1.25), abs=1e-10)
    assert positive[3]["value"] == pytest.approx(math.sqrt(1.75), abs=1e-10)
    assert positive[3]["matched_lambda"] == -1


def test_spin1_block_diagonal_matches_formula_at_any_g():
    report = compare_closed_form(SpectralModel("spin1", "fw", B=0.2, g=2.4, N=64))
    assert report["status"] == "pass"
    assert report["max_interior_residual"] < 1e-12


def test_closed_form_energy_domain_guard():
    model = SpectralModel("spin1", "fw", B=0.25, g=2.0, N=16)
    strong = SpectralModel("spin1", "fw", B=0.25, g=2.0, N=16, m=0.1)
    assert closed_form_energy(model, 0, 1) is not None
    assert closed_form_energy(strong, 0, 1) is None


# -- cross-representation and truncation hygiene ----------------------------------------


def _lowest_positive(model, count):
    values = sorted(v for v in interior_spectrum(model) if v > 0)
    return values[:count]


def test_interior_spectra_agree_across_representations():
    pairs = [
        (
            SpectralModel("spin12", "original", B=0.3, g=2.35, N=96),
            SpectralModel("spin12", "fw", B=0.3, g=2.35, N=96),
        ),
        (
            SpectralModel("spin1", "original", B=0.25, g=2.0, N=96),
            SpectralModel("spin1", "fw", B=0.25, g=2.0, N=96),
        ),
    ]
    for first, second in pairs:
        for a, b in zip(_lowest_positive(first, 10), _lowest_positive(second, 10)):
            assert abs(a - b) < 1e-8


@pytest.mark.parametrize("particle", ["spin12", "spin1"])
def test_first_order_spectra_come_in_plus_minus_pairs(particle):
    model = SpectralModel(particle, "original", B=0.3, g=2.2, N=64)
    values = interior_spectrum(model)
    positive = sorted(v for v in values if v > 0)[:10]
    negated = sorted(-v for v in values if v < 0)[:10]
    for a, b in zip(positive, negated):
        assert abs(a - b) < 1e-8


@pytest.mark.parametrize(
    "particle, representation",
    [("spin0", "fw"), ("spin12", "original"), ("spin1", "original")],
)
def test_doubling_basis_size_leaves_interior_levels_fixed(particle, representation):
    base = SpectralModel(particle, representation, B=0.3, g=2.2, N=64)
    doubled = dataclasses.replace(base, N=128)
    for a, b in zip(_lowest_positive(base, 10), _lowest_positive(doubled, 10)):
        assert abs(a - b) / abs(b) < 1e-10


def test_truncation_edge_states_are_flagged():
    report = compare_closed_form(SpectralModel("spin12", "fw", B=0.3, g=2.35, N=32))
    flags = [entry["interior"] for entry in report["eigenvalues"]]
    assert not all(flags)
    assert any(flags)
    for entry in report["eigenvalues"]:
        if not entry["interior"]:
            assert entry["matched_n"] is None
            assert entry["residual"] is None


# -- conserved blocks -----------------------------------------------------------------------

ALL_PAIRS = [(p, r) for p, reps in REPRESENTATIONS.items() for r in reps]


@pytest.mark.parametrize("N", [8, 9, 33])
@pytest.mark.parametrize("B", [0.0, 0.3])
@pytest.mark.parametrize("charge", [1.0, -1.0])
@pytest.mark.parametrize("particle, representation", ALL_PAIRS)
def test_window_blocks_match_dense_blocks(particle, representation, charge, B, N, monkeypatch):
    """Every block, edge and partial ones included, cut from its window
    equals the slice of the matrix on all N levels."""
    # A small chunk puts block windows on both sides of chunk boundaries.
    monkeypatch.setattr(spectra, "WINDOW_CHUNK", 3)
    model = SpectralModel(particle, representation, e=charge, B=B, g=2.3, N=N)
    dense = build_model_matrix(model)
    labels, _ = spectra._blocks(model)
    groups = spectra._block_groups(model, labels)
    stacks = spectra._gather_blocks(
        model, lambda levels: (build_model_matrix(model, levels=levels),), groups
    )
    covered = []
    for (states, _), (blocks,) in zip(groups, stacks):
        for block_states, block in zip(states, blocks):
            want = dense[np.ix_(block_states, block_states)]
            assert np.abs(block - want).max() <= 1e-12 * np.abs(want).max()
            covered.extend(block_states)
    assert sorted(covered) == list(range(dense.shape[0]))


@pytest.mark.parametrize("B", [0.0, 0.3])
@pytest.mark.parametrize("charge", [1.0, -1.0])
@pytest.mark.parametrize("particle, representation", ALL_PAIRS)
def test_block_solve_matches_dense_solve(particle, representation, charge, B):
    model = SpectralModel(particle, representation, e=charge, B=B, g=2.3, N=32)
    matrix = build_model_matrix(model)
    labels, interior = spectra._blocks(model)
    assert np.all(matrix[labels[:, None] != labels[None, :]] == 0.0)
    # Off-label entries are exactly zero, so the dense solve on the interior
    # states has exactly the interior blocks' spectrum.
    interior_matrix = matrix[np.ix_(interior, interior)]
    if representation == "original":
        dense = np.linalg.eigvals(interior_matrix)
    else:
        dense = np.linalg.eigvalsh(interior_matrix).astype(complex)
    values, flags = spectra._eigensystem(model)
    blockwise = values[flags]
    assert len(blockwise) == len(dense) > 0
    dense = dense[np.lexsort((dense.imag, dense.real))]
    assert np.all(np.abs(blockwise - dense) <= 1e-12 * np.abs(dense))


@pytest.mark.parametrize("charge", [1.0, -1.0])
@pytest.mark.parametrize("particle, representation", ALL_PAIRS)
def test_interior_blocks_do_not_see_the_truncation(particle, representation, charge):
    small = SpectralModel(particle, representation, e=charge, B=0.3, g=2.3, N=32)
    large = dataclasses.replace(small, N=40)
    small_matrix, large_matrix = build_model_matrix(small), build_model_matrix(large)
    small_labels, interior = spectra._blocks(small)
    large_labels, _ = spectra._blocks(large)
    for label in np.unique(small_labels):
        here = np.flatnonzero(small_labels == label)
        there = np.flatnonzero(large_labels == label)
        if len(here) != len(there):
            assert not interior[here].any()
            continue
        if interior[here[0]]:
            gap = small_matrix[np.ix_(here, here)] - large_matrix[np.ix_(there, there)]
            assert np.abs(gap).max() < 1e-12


@pytest.mark.parametrize("B", [0.0, 0.3])
@pytest.mark.parametrize("charge", [1.0, -1.0])
@pytest.mark.parametrize("particle", ["spin12", "spin1"])
def test_interior_count_is_the_same_for_every_representation(particle, charge, B):
    counts = {
        representation: len(
            interior_spectrum(
                SpectralModel(particle, representation, e=charge, B=B, g=2.3, N=32)
            )
        )
        for representation in REPRESENTATIONS[particle]
    }
    assert len(set(counts.values())) == 1, counts


def _nearest_by_min(value, energies):
    """The matcher the vectorized one replaced: a scan of the whole table."""
    return min(range(len(energies)), key=lambda index: abs(value - energies[index]))


@pytest.mark.parametrize(
    "energies",
    [
        # spin 1/2 at g = 2: the lambda = -1 and +1 levels coincide.
        spectra._closed_form_table(SpectralModel("spin12", "fw", B=0.3, g=2.0, N=32), 32)[:, 0],
        spectra._closed_form_table(SpectralModel("spin1", "fw", B=0.3, g=2.0, N=16), 16)[:, 0],
        # Repeated entries, and midpoints that are exact in binary.
        np.array([2.0, 1.0, 3.0, 2.0, -1.0, 3.0, 1.0, 0.5]),
    ],
)
def test_nearest_matches_the_table_scan(energies):
    ranked = np.unique(energies)
    values = np.concatenate(
        [
            energies,
            (ranked[1:] + ranked[:-1]) / 2.0,
            np.nextafter(energies, np.inf),
            np.nextafter(energies, -np.inf),
            [ranked[0] - 1.0, ranked[-1] + 1.0, 0.0],
            np.random.default_rng(3).uniform(ranked[0] - 0.5, ranked[-1] + 0.5, size=200),
        ]
    )
    want = [_nearest_by_min(value, energies) for value in values]
    assert spectra._nearest(values, energies).tolist() == want


def test_spin1_spectrum_memory_grows_linearly_with_levels():
    """No (6N)^2 matrix is formed: at N = 2000 one takes 2.1 GiB."""
    model = SpectralModel("spin1", "original", B=0.5, N=2000)
    tracemalloc.start()
    try:
        report = compare_closed_form(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["status"] == "pass"
    assert peak < 64 * 2**20


# -- anomalous-moment linearity scan -----------------------------------------------------


def test_amm_scan_measures_first_order_defect():
    g_values = [2.0 + x for x in np.logspace(-3, -1, 7)]
    report = amm_linearity_scan(g_values, 0.1, N=64)
    scan = report["scan"]
    assert scan["x_values"] == pytest.approx(list(np.logspace(-3, -1, 7)))
    assert all(b > a for a, b in zip(scan["residuals"], scan["residuals"][1:]))
    # The linear-in-field block-diagonal form misses cross terms of first
    # order in the anomaly times the field squared, so the matched-level
    # defect grows linearly in g - 2 and the slope sits near one, below the
    # stated quadratic expectation window.
    assert 0.9 < scan["fitted_slope"] < 1.1
    assert report["slope_window"] == [1.8, 2.2]
    assert report["status"] == "fail"


def test_amm_scan_halving_the_anomaly_halves_the_residual():
    wide = amm_linearity_scan([2.02], 0.1, N=64)["scan"]["residuals"][0]
    narrow = amm_linearity_scan([2.01], 0.1, N=64)["scan"]["residuals"][0]
    assert wide / narrow == pytest.approx(2.0, rel=0.05)


def test_amm_scan_rejects_zero_anomaly():
    with pytest.raises(InvalidModelError):
        amm_linearity_scan([2.0, 2.1], 0.1, N=32)


def test_amm_scan_insufficient_interior_levels(monkeypatch):
    monkeypatch.setattr(spectra, "SCAN_LEVELS", 40)
    with pytest.raises(InsufficientInteriorError, match="increase N"):
        amm_linearity_scan([2.1], 0.1, N=8)


# -- corrected block-diagonal residual scan ----------------------------------------------


def test_correction_scan_slope_shows_fourth_order_remainder():
    fields = list(np.logspace(-3, -1, 7))
    report = correction_residual_scan(2.5, fields, N=64)
    scan = report["scan"]
    assert all(b > a for a, b in zip(scan["residuals"], scan["residuals"][1:]))
    assert scan["fitted_slope"] > 3.5
    assert scan["fitted_slope"] == pytest.approx(4.03, abs=0.25)
    assert report["status"] == "pass"


def test_correction_scan_rejects_g_two():
    with pytest.raises(InvalidModelError):
        correction_residual_scan(2.0, [0.01, 0.1], N=32)


# -- operator relations -------------------------------------------------------------------


def test_operator_relations_hold_at_generic_g():
    report = operator_relation_check(0.3, 2.7, N=24)
    assert report["status"] == "pass"
    names = [check["name"] for check in report["checks"]]
    assert names == [
        "odd_square_commutes_with_even",
        "odd_even_commutator_closed_form",
        "nested_anticommutator_closed_form",
        "commutator_square_closed_form",
        "quartic_ratio_minus_half",
    ]
    by_name = {check["name"]: check for check in report["checks"]}
    # The closed forms are exercised non-trivially: the left sides are
    # far from zero while the residuals sit at machine precision.
    assert by_name["odd_even_commutator_closed_form"]["max_abs_value"] > 1e-3
    assert by_name["nested_anticommutator_closed_form"]["max_abs_value"] > 1e-4
    assert by_name["commutator_square_closed_form"]["max_abs_value"] > 1e-4
    for check in report["checks"]:
        assert check["passed"]


def test_operator_relations_vanish_when_even_part_vanishes():
    report = operator_relation_check(0.3, 2.0, N=24)
    assert report["status"] == "pass"
    by_name = {check["name"]: check for check in report["checks"]}
    assert by_name["odd_square_commutes_with_even"]["norm"] == 0.0
    for name in (
        "odd_even_commutator_closed_form",
        "nested_anticommutator_closed_form",
        "commutator_square_closed_form",
    ):
        assert by_name[name]["max_abs_value"] == 0.0


def test_operator_relations_commutator_vanishes_at_g_one():
    report = operator_relation_check(0.3, 1.0, N=24)
    assert report["status"] == "pass"
    by_name = {check["name"]: check for check in report["checks"]}
    # The even part itself is nonzero at g = 1 ...
    assert by_name["odd_square_commutes_with_even"]["bound"] > 0.0
    # ... yet the commutator closed form collapses to zero.
    assert by_name["odd_even_commutator_closed_form"]["max_abs_value"] < 1e-12


# -- reports --------------------------------------------------------------------------------


def test_report_schema_and_determinism():
    model = SpectralModel("spin12", "fw", B=0.3, g=2.35, N=32)
    first = report_json(compare_closed_form(model))
    second = report_json(compare_closed_form(model))
    assert first == second
    decoded = json.loads(first)
    assert set(decoded) >= {"model", "N", "eigenvalues", "scan"}
    entry = decoded["eigenvalues"][0]
    assert set(entry) == {
        "value",
        "imag_abs",
        "interior",
        "matched_n",
        "matched_lambda",
        "residual",
    }
    assert decoded["scan"] is None
    assert decoded["model"]["particle"] == "spin12"


def test_scan_report_schema():
    report = correction_residual_scan(2.5, [0.01, 0.03, 0.1], N=32)
    decoded = json.loads(report_json(report))
    assert set(decoded["scan"]) == {"x_values", "residuals", "fitted_slope"}
    assert decoded["eigenvalues"] == []
    assert decoded["N"] == 32


def test_dirac_matrices_are_the_concretizer_basis():
    from fwforge.concretizer import MATRIX_BASIS

    labels = ("beta", "alpha_x", "alpha_y", "Sigma_z", "Pi_z")
    for label, matrix in zip(labels, spectra._dirac_matrices()):
        expected = [[complex(float(c.re), float(c.im)) for c in row] for row in MATRIX_BASIS[label]]
        assert np.array_equal(matrix, np.array(expected)), label


def test_both_layers_read_one_sign_of_the_kinetic_momentum_commutator():
    """[pi_x, pi_y] = i e hbar B_z in the concretizer's normal ordering and
    on the spectra's truncated Landau levels, for either sign of the charge.
    The levels start at 0, so only the top level is cut by truncation."""
    from fwforge.concretizer import UNIFORM, momentum, term_strings

    bracket = momentum(UNIFORM, 0).commutator(momentum(UNIFORM, 1)).normal_order()
    assert term_strings(bracket) == ["i e hbar B_z"]
    hbar, B = 1.0, 0.5
    for e in (1.0, -1.0, 2.5):
        pi_x, pi_y = spectra._transverse_momenta(e, hbar, B, np.arange(8))
        commutator = pi_x @ pi_y - pi_y @ pi_x
        diagonal = np.diag(commutator)
        assert np.all(commutator - np.diag(diagonal) == 0), e
        assert np.abs(diagonal[:-1] - 1j * e * hbar * B).max() <= 1e-12 * abs(e * hbar * B), e
