"""Landau-level spectra of relativistic wave equations in a uniform magnetic field.

This module checks the closed-form energy spectra and scaling claims
numerically.  For each particle kind (spin 0, spin 1/2, spin 1) it builds a
dense matrix for the chosen representation of the Hamiltonian on a truncated
Landau basis, diagonalizes it, discards eigenpairs that touch the truncation
edge, and compares the surviving "interior" eigenvalues against closed-form
level formulas or against each other.

Representations
---------------
``original``
    The first-order wave-equation form: the Dirac-Pauli Hamiltonian for spin
    1/2 (with an anomalous-moment term) and the six-component Sakata-Taketani
    Hamiltonian for spin 1.  These matrices are not Hermitian in general
    (the Sakata-Taketani form is pseudo-Hermitian with metric rho_3), so they
    are diagonalized with a general complex eigensolver and the reality of
    interior eigenvalues is *checked*, not assumed.
``fw``
    The block-diagonal (Foldy-Wouthuysen) form.  For spin 0 and for spin 1/2
    this form is exact; for spin 1 it is exact at g = 2 and valid to terms
    linear in the field for g != 2.
``fw_corrected``
    Spin 1 only: the block-diagonal form with the second-order field
    corrections retained, valid through terms cubic in the field strength.
    Its defect against the exact six-component spectrum shrinks like the
    fourth power of the field.

Basis layout
------------
Matrices act on (Landau level) x (internal) indices, Landau index leading,
so an eigenvector reshaped to ``(N, -1)`` exposes the Landau weight profile
used by the interior filter.  The transverse kinetic momenta are realized
with truncated ladder operators; their squared sum has the Landau
eigenstructure (2n + 1)|e| hbar B away from the truncation edge.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .concretizer import MATRIX_BASIS

__all__ = [
    "PARTICLES",
    "REPRESENTATIONS",
    "SpectralModel",
    "InvalidModelError",
    "SquareRootDomainError",
    "InsufficientInteriorError",
    "build_model_matrix",
    "hermitian_sqrt",
    "closed_form_energy",
    "interior_spectrum",
    "compare_closed_form",
    "amm_linearity_scan",
    "correction_residual_scan",
    "operator_relation_check",
    "report_json",
]

PARTICLES = ("spin0", "spin12", "spin1")

# Which representations exist per particle.  A first-order spin-0 form is
# deliberately out of scope; spin 1/2 has no corrected form because its
# block-diagonal form is already exact.
REPRESENTATIONS = {
    "spin0": ("fw",),
    "spin12": ("original", "fw"),
    "spin1": ("original", "fw", "fw_corrected"),
}

INTERNAL_DIM = {"spin0": 2, "spin12": 4, "spin1": 6}

# Spin projections searched by the closed-form matcher.
LAMBDA_VALUES = {"spin0": (0,), "spin12": (-1, 1), "spin1": (-1, 0, 1)}

#: Eigenvector weight allowed on the top Landau levels of an interior state.
INTERIOR_WEIGHT_TOL = 1e-8

#: Residual above which an interior eigenvalue counts as unmatched.
MATCH_TOL = 1e-6

#: Tolerance for the operator-relation checks and cross-representation tests.
RELATION_TOL = 1e-8


class InvalidModelError(ValueError):
    """Raised when a spectral model's fields are inconsistent."""


class SquareRootDomainError(ValueError):
    """Raised when a matrix square root meets a non-positive operand."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            "matrix square root requires a positive-definite operand; "
            f"minimum eigenvalue is {self.min_eigenvalue:.6e}"
        )


class InsufficientInteriorError(RuntimeError):
    """Raised when too few interior eigenvalues survive the edge filter."""


@dataclass(frozen=True)
class SpectralModel:
    """Parameters of one truncated-basis spectral problem.

    ``e`` is the signed charge; ``B`` >= 0 is the field along z; the
    longitudinal momentum is fixed to zero.  ``N`` is the number of Landau
    levels kept in the basis.
    """

    particle: str
    representation: str
    m: float = 1.0
    hbar: float = 1.0
    e: float = 1.0
    B: float = 0.0
    g: float = 2.0
    N: int = 64

    def __post_init__(self):
        if self.particle not in PARTICLES:
            raise InvalidModelError(
                f"unknown particle {self.particle!r}; expected one of {PARTICLES}"
            )
        allowed = REPRESENTATIONS[self.particle]
        if self.representation not in allowed:
            raise InvalidModelError(
                f"representation {self.representation!r} is not available for "
                f"{self.particle}; expected one of {allowed}"
            )
        if not self.B >= 0:
            raise InvalidModelError(f"field must satisfy B >= 0, got {self.B}")
        if int(self.N) != self.N or self.N < 8:
            raise InvalidModelError(f"basis size must be an integer >= 8, got {self.N}")
        if not self.m > 0:
            raise InvalidModelError(f"mass must be positive, got {self.m}")
        if not self.hbar > 0:
            raise InvalidModelError(f"hbar must be positive, got {self.hbar}")

    @property
    def edge_levels(self) -> int:
        """Top Landau levels treated as truncation edge (4 for spin 1 because
        the squared spin-momentum coupling hops two levels at a time)."""
        return 4 if self.particle == "spin1" else 2

    @property
    def internal_dim(self) -> int:
        return INTERNAL_DIM[self.particle]

    def with_levels(self, N: int) -> "SpectralModel":
        return dataclasses.replace(self, N=N)

    def to_dict(self) -> dict:
        return {
            "particle": self.particle,
            "representation": self.representation,
            "m": float(self.m),
            "hbar": float(self.hbar),
            "e": float(self.e),
            "B": float(self.B),
            "g": float(self.g),
            "N": int(self.N),
        }


# -- elementary operators ------------------------------------------------------------


def _annihilation(N: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, N, dtype=float)), k=1).astype(complex)


def _transverse_momenta(e: float, hbar: float, B: float, N: int):
    """Return (pi_x, pi_y) on the truncated Landau basis.

    The ladder combination is chosen by the sign of the charge so that
    [pi_x, pi_y] = i e hbar B holds with signed e, and
    pi_x^2 + pi_y^2 is diagonal with entries (2n + 1)|e| hbar B away from
    the top level.
    """
    omega = abs(e) * hbar * B
    if omega == 0.0:
        zero = np.zeros((N, N), dtype=complex)
        return zero, zero.copy()
    sign = 1.0 if e > 0 else -1.0
    a = _annihilation(N)
    adag = a.conj().T
    scale = math.sqrt(omega / 2.0)
    pi_x = scale * (a + adag)
    pi_y = -1j * sign * scale * (a - adag)
    return pi_x, pi_y


def _complex_matrix(label: str) -> np.ndarray:
    rows = MATRIX_BASIS[label]
    return np.array(
        [[complex(float(cell.re), float(cell.im)) for cell in row] for row in rows],
        dtype=complex,
    )


def _spin1_matrices():
    """Dimensionless spin-1 matrices with S_z eigenvalues (1, 0, -1)."""
    r = 1.0 / math.sqrt(2.0)
    s_x = np.array([[0, r, 0], [r, 0, r], [0, r, 0]], dtype=complex)
    s_y = np.array([[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]], dtype=complex)
    s_z = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return s_x, s_y, s_z


def _rho_matrices():
    rho_1 = np.array([[0, 1], [1, 0]], dtype=complex)
    rho_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    rho_3 = np.diag([1.0, -1.0]).astype(complex)
    return rho_1, rho_2, rho_3


def hermitian_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian positive-definite matrix by eigendecomposition."""
    values, vectors = np.linalg.eigh(matrix)
    smallest = float(values.min())
    if smallest <= 0.0:
        raise SquareRootDomainError(smallest)
    return (vectors * np.sqrt(values)) @ vectors.conj().T


def _anomalous_moment(model: SpectralModel) -> float:
    """Spin-1/2 anomalous magnetic moment (g - 2) e hbar / (4 m)."""
    return (model.g - 2.0) * model.e * model.hbar / (4.0 * model.m)


# -- model matrices ------------------------------------------------------------------


def _spin1_kernels(model: SpectralModel):
    """Shared spin-1 building blocks on the (Landau x spin) product space."""
    N = model.N
    pi_x, pi_y = _transverse_momenta(model.e, model.hbar, model.B, N)
    pi_sq = pi_x @ pi_x + pi_y @ pi_y
    s_x, s_y, s_z = _spin1_matrices()
    eye_spin = np.eye(3, dtype=complex)
    eye_landau = np.eye(N, dtype=complex)
    spin_momentum = np.kron(pi_x, s_x) + np.kron(pi_y, s_y)
    return {
        "pi_x": pi_x,
        "pi_y": pi_y,
        "pi_sq_full": np.kron(pi_sq, eye_spin),
        "s_x": s_x,
        "s_y": s_y,
        "s_z_full": np.kron(eye_landau, s_z),
        "s_z_sq_full": np.kron(eye_landau, s_z @ s_z),
        "spin_momentum": spin_momentum,
        "eye": np.eye(3 * N, dtype=complex),
    }


def _build_spin0(model: SpectralModel) -> np.ndarray:
    N = model.N
    pi_x, pi_y = _transverse_momenta(model.e, model.hbar, model.B, N)
    radicand = (model.m**2) * np.eye(N, dtype=complex) + pi_x @ pi_x + pi_y @ pi_y
    root = hermitian_sqrt(radicand)
    return np.kron(root, np.diag([1.0, -1.0]).astype(complex))


def _build_spin12(model: SpectralModel) -> np.ndarray:
    N = model.N
    pi_x, pi_y = _transverse_momenta(model.e, model.hbar, model.B, N)
    beta = _complex_matrix("beta")
    eye_landau = np.eye(N, dtype=complex)
    moment = _anomalous_moment(model)
    amm_term = moment * model.B * np.kron(eye_landau, _complex_matrix("Pi_z"))
    if model.representation == "original":
        return (
            model.m * np.kron(eye_landau, beta)
            + np.kron(pi_x, _complex_matrix("alpha_x"))
            + np.kron(pi_y, _complex_matrix("alpha_y"))
            - amm_term
        )
    radicand = (
        (model.m**2) * np.eye(4 * N, dtype=complex)
        + np.kron(pi_x @ pi_x + pi_y @ pi_y, np.eye(4, dtype=complex))
        - model.e * model.hbar * model.B * np.kron(eye_landau, _complex_matrix("Sigma_z"))
    )
    return np.kron(eye_landau, beta) @ hermitian_sqrt(radicand) - amm_term


def _build_spin1(model: SpectralModel) -> np.ndarray:
    kernels = _spin1_kernels(model)
    rho_1, rho_2, rho_3 = _rho_matrices()
    m, hbar, e, B, g = model.m, model.hbar, model.e, model.B, model.g
    # Anomalous-moment energy scale shared by all spin-1 forms.
    amm = e * hbar * (g - 2.0) * B / (2.0 * m)

    if model.representation == "original":
        mass_block = (
            m * kernels["eye"]
            + kernels["pi_sq_full"] / (2.0 * m)
            - (e * hbar * B / m) * kernels["s_z_full"]
        )
        even_block = -amm * kernels["s_z_full"]
        odd_block = (
            kernels["pi_sq_full"] / (2.0 * m)
            - kernels["spin_momentum"] @ kernels["spin_momentum"] / m
            + amm * kernels["s_z_full"]
        )
        return (
            np.kron(mass_block + even_block, rho_3)
            + 1j * np.kron(odd_block, rho_2)
        )

    radicand = (
        (m**2) * kernels["eye"]
        + kernels["pi_sq_full"]
        - 2.0 * e * hbar * B * kernels["s_z_full"]
    )
    if model.representation == "fw":
        inner = hermitian_sqrt(radicand) - amm * kernels["s_z_full"]
        return np.kron(inner, rho_3)

    # Corrected block-diagonal form: keep the second-order field terms.
    radicand = radicand - (
        (e**2) * (hbar**2) * g * (g - 2.0) * (B**2) / (4.0 * m**2)
    ) * kernels["s_z_sq_full"]
    energy_root = hermitian_sqrt(radicand)
    kernel = np.linalg.inv(energy_root @ energy_root + m * energy_root)
    cross = np.kron(kernels["pi_y"], kernels["s_x"]) - np.kron(
        kernels["pi_x"], kernels["s_y"]
    )
    correction_core = (
        (B**2) * kernels["spin_momentum"] @ kernels["spin_momentum"]
        - (B**2) * cross @ cross
        - e * hbar * (g - 1.0) * (B**3) * kernels["s_z_full"]
    )
    weight = (e**2) * (hbar**2) * (g - 1.0) * (g - 2.0) / (16.0 * m**3)
    inner = (
        energy_root
        - amm * kernels["s_z_full"]
        + weight * (kernel @ correction_core + correction_core @ kernel)
    )
    return np.kron(inner, rho_3)


def build_model_matrix(model: SpectralModel) -> np.ndarray:
    """Dense complex Hamiltonian matrix on the (Landau x internal) basis."""
    if model.particle == "spin0":
        return _build_spin0(model)
    if model.particle == "spin12":
        return _build_spin12(model)
    return _build_spin1(model)


# -- diagonalization and interior filtering ------------------------------------------


def _eigensystem(model: SpectralModel):
    """Eigenvalues (complex), sorted by real part, with interior flags."""
    matrix = build_model_matrix(model)
    if model.representation == "original":
        values, vectors = np.linalg.eig(matrix)
    else:
        real_values, vectors = np.linalg.eigh(matrix)
        values = real_values.astype(complex)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    norms = np.linalg.norm(vectors, axis=0)
    weights = np.abs(vectors) ** 2 / norms**2
    landau_weights = weights.reshape(model.N, model.internal_dim, -1).sum(axis=1)
    edge_weight = landau_weights[model.N - model.edge_levels :, :].sum(axis=0)
    interior = edge_weight < INTERIOR_WEIGHT_TOL
    return values, interior


def interior_spectrum(model: SpectralModel) -> np.ndarray:
    """Real parts of the interior eigenvalues, ascending."""
    values, interior = _eigensystem(model)
    return values.real[interior]


def _interior_positive(model: SpectralModel, levels: int) -> list[float]:
    values = [v for v in interior_spectrum(model) if v > 0]
    if len(values) < levels:
        raise InsufficientInteriorError(
            f"only {len(values)} positive interior eigenvalues at N={model.N}; "
            "increase N"
        )
    return values[:levels]


# -- closed-form levels ---------------------------------------------------------------


def closed_form_energy(model: SpectralModel, n: int, lam: int) -> float | None:
    """Closed-form positive-branch level, or None outside the formula's domain.

    ``lam`` is the spin projection along the field (0 for spin 0).  The
    absolute charge enters the Landau ladder term; the signed charge enters
    the spin-field couplings.
    """
    x = abs(model.e) * model.hbar * model.B
    signed = model.e * model.hbar * model.B
    m = model.m
    base = m * m + (2 * n + 1) * x
    if model.particle == "spin0":
        radicand = base
        shift = 0.0
    elif model.particle == "spin12":
        radicand = base - lam * signed
        shift = -lam * _anomalous_moment(model) * model.B
    else:
        radicand = base - 2.0 * lam * signed
        shift = -lam * model.e * model.hbar * (model.g - 2.0) * model.B / (2.0 * m)
    if radicand <= 0:
        return None
    return math.sqrt(radicand) + shift


def _closed_form_table(model: SpectralModel, max_level: int):
    """All candidate (energy, n, lambda) triples on both energy branches."""
    table = []
    for lam in LAMBDA_VALUES[model.particle]:
        for n in range(max_level):
            energy = closed_form_energy(model, n, lam)
            if energy is None:
                continue
            table.append((energy, n, lam))
            table.append((-energy, n, lam))
    return table


def _match_value(value: float, table) -> tuple[int, int, float]:
    best = min(table, key=lambda entry: abs(value - entry[0]))
    energy, n, lam = best
    residual = abs(value - energy) / max(abs(energy), 1e-300)
    return n, lam, residual


def compare_closed_form(model: SpectralModel, n_levels: int | None = None) -> dict:
    """Match every interior eigenvalue to the nearest closed-form level.

    Returns a report dict with one entry per eigenvalue; interior entries
    carry the best-fitting Landau index, spin projection, and relative
    residual.  The spin-projection label is searched, not assumed, because
    the closed-form sign conventions are not pinned a priori.
    """
    if n_levels is not None:
        model = model.with_levels(n_levels)
    values, interior = _eigensystem(model)
    table = _closed_form_table(model, model.N)
    entries = []
    residuals = []
    imag_parts = []
    unmatched = 0
    for value, is_interior in zip(values, interior):
        entry = {
            "value": float(value.real),
            "imag_abs": float(abs(value.imag)),
            "interior": bool(is_interior),
            "matched_n": None,
            "matched_lambda": None,
            "residual": None,
        }
        if is_interior:
            n, lam, residual = _match_value(float(value.real), table)
            entry["matched_n"] = int(n)
            entry["matched_lambda"] = None if model.particle == "spin0" else int(lam)
            entry["residual"] = float(residual)
            residuals.append(float(residual))
            imag_parts.append(float(abs(value.imag)))
            if residual > MATCH_TOL:
                unmatched += 1
        entries.append(entry)
    status = "pass"
    if unmatched or (imag_parts and max(imag_parts) > RELATION_TOL):
        status = "fail"
    if not residuals:
        status = "fail"
    return {
        "model": model.to_dict(),
        "N": int(model.N),
        "eigenvalues": entries,
        "scan": None,
        "interior_count": len(residuals),
        "unmatched_interior": int(unmatched),
        "max_interior_residual": max(residuals) if residuals else None,
        "max_interior_imag": max(imag_parts) if imag_parts else None,
        "status": status,
    }


# -- scaling scans --------------------------------------------------------------------


def _fit_loglog_slope(x_values, residuals) -> float | None:
    pairs = [(x, r) for x, r in zip(x_values, residuals) if x > 0 and r > 0]
    # A line through one distinct x is undetermined, however many points.
    if len({x for x, _ in pairs}) < 2:
        return None
    logs_x = np.log([p[0] for p in pairs])
    logs_r = np.log([p[1] for p in pairs])
    slope = np.polyfit(logs_x, logs_r, 1)[0]
    return float(slope)


def amm_linearity_scan(
    g_values,
    B: float,
    N: int = 64,
    *,
    e: float = 1.0,
    m: float = 1.0,
    hbar: float = 1.0,
    levels: int = 4,
) -> dict:
    """Residual of the six-component spin-1 spectrum against the closed-form
    anomalous-moment formula, scanned over the anomaly g - 2.

    For each g the lowest positive interior eigenvalues are matched to the
    nearest closed-form level and the largest absolute residual is recorded;
    the report carries the fitted log-log slope against g - 2 together with
    the stated expectation window [1.8, 2.2].
    """
    g_values = [float(g) for g in g_values]
    if any(g == 2.0 for g in g_values):
        raise InvalidModelError("g = 2 has zero anomaly; scan over g != 2")
    x_values = []
    residuals = []
    for g in g_values:
        model = SpectralModel("spin1", "original", m=m, hbar=hbar, e=e, B=B, g=g, N=N)
        lowest = _interior_positive(model, levels)
        table = [entry for entry in _closed_form_table(model, model.N) if entry[0] > 0]
        worst = 0.0
        for value in lowest:
            nearest = min(table, key=lambda entry: abs(value - entry[0]))
            worst = max(worst, abs(value - nearest[0]))
        x_values.append(abs(g - 2.0))
        residuals.append(worst)
    slope = _fit_loglog_slope(x_values, residuals)
    window = (1.8, 2.2)
    status = "pass" if slope is not None and window[0] <= slope <= window[1] else "fail"
    return {
        "model": {
            "particle": "spin1",
            "representation": "original",
            "m": float(m),
            "hbar": float(hbar),
            "e": float(e),
            "B": float(B),
            "g": g_values,
            "N": int(N),
        },
        "N": int(N),
        "eigenvalues": [],
        "scan": {
            "x_values": x_values,
            "residuals": residuals,
            "fitted_slope": slope,
        },
        "levels": int(levels),
        "slope_window": list(window),
        "status": status,
    }


def correction_residual_scan(
    g: float,
    B_values,
    N: int = 64,
    *,
    e: float = 1.0,
    m: float = 1.0,
    hbar: float = 1.0,
    levels: int = 4,
) -> dict:
    """Residual of the corrected block-diagonal spin-1 spectrum against the
    exact six-component spectrum, scanned over the field strength.

    The corrected form keeps all terms through the third power of the field,
    so the matched-level residual is expected to fall off with log-log slope
    greater than 3.5 across the scan.
    """
    if g == 2.0:
        raise InvalidModelError(
            "at g = 2 the corrected form coincides with the exact square-root "
            "form; scan at g != 2"
        )
    B_values = [float(B) for B in B_values]
    x_values = []
    residuals = []
    for B in B_values:
        reference = SpectralModel("spin1", "original", m=m, hbar=hbar, e=e, B=B, g=g, N=N)
        corrected = SpectralModel(
            "spin1", "fw_corrected", m=m, hbar=hbar, e=e, B=B, g=g, N=N
        )
        ref_levels = _interior_positive(reference, levels)
        corr_levels = _interior_positive(corrected, levels)
        worst = max(
            abs(a - b) for a, b in zip(ref_levels, corr_levels)
        )
        x_values.append(B)
        residuals.append(worst)
    slope = _fit_loglog_slope(x_values, residuals)
    threshold = 3.5
    status = "pass" if slope is not None and slope > threshold else "fail"
    return {
        "model": {
            "particle": "spin1",
            "representation": "fw_corrected",
            "m": float(m),
            "hbar": float(hbar),
            "e": float(e),
            "B": B_values,
            "g": float(g),
            "N": int(N),
        },
        "N": int(N),
        "eigenvalues": [],
        "scan": {
            "x_values": x_values,
            "residuals": residuals,
            "fitted_slope": slope,
        },
        "levels": int(levels),
        "slope_threshold": threshold,
        "status": status,
    }


# -- operator relations ----------------------------------------------------------------


def operator_relation_check(
    B: float,
    g: float,
    N: int = 32,
    *,
    e: float = 1.0,
    m: float = 1.0,
    hbar: float = 1.0,
) -> dict:
    """Verify the algebraic relations between the odd and even parts of the
    six-component spin-1 Hamiltonian on the truncated basis.

    Checks, on the interior-projected block:

    * the squared odd part commutes with the even part;
    * the odd-even commutator equals rho_1 times a known multiple of the
      squared spin-field projection;
    * the nested anticommutator {O, [[O, E], E]} and the squared commutator
      ([O, E])^2 both reduce to the same quartic invariant, with ratio -1/2.

    All right-hand sides carry the factor (g - 1)(g - 2), so every quantity
    vanishes at g = 2 (even part zero) and the commutator lines vanish at
    g = 1 as well.
    """
    model = SpectralModel("spin1", "original", m=m, hbar=hbar, e=e, B=B, g=g, N=N)
    kernels = _spin1_kernels(model)
    rho_1, rho_2, rho_3 = _rho_matrices()
    eye_rho = np.eye(2, dtype=complex)
    amm = e * hbar * (g - 2.0) * B / (2.0 * m)

    odd_core = (
        kernels["pi_sq_full"] / (2.0 * m)
        - kernels["spin_momentum"] @ kernels["spin_momentum"] / m
        + amm * kernels["s_z_full"]
    )
    odd = 1j * np.kron(odd_core, rho_2)
    even = -amm * np.kron(kernels["s_z_full"], rho_3)

    # Interior projector: drop the top Landau levels that truncation pollutes.
    keep = np.zeros(model.N)
    keep[: model.N - model.edge_levels] = 1.0
    projector = np.kron(np.kron(np.diag(keep).astype(complex), np.eye(3)), eye_rho)

    def clip(matrix):
        return projector @ matrix @ projector

    spin_field_sq = (B**2) * np.kron(kernels["s_z_sq_full"], eye_rho)

    odd_sq = odd @ odd
    comm_oe = odd @ even - even @ odd
    comm_osq_e = odd_sq @ even - even @ odd_sq
    nested = comm_oe @ even - even @ comm_oe
    anti = odd @ nested + nested @ odd
    comm_sq = comm_oe @ comm_oe

    commutator_rhs = (
        (e**2) * (hbar**2) * (g - 1.0) * (g - 2.0) / (2.0 * m**2)
    ) * np.kron(kernels["s_z_sq_full"] * (B**2), rho_1)
    quartic_scale = (
        (e**4) * (hbar**4) * ((g - 1.0) ** 2) * ((g - 2.0) ** 2) / (m**4)
    ) * (B**2)
    anti_rhs = -0.5 * quartic_scale * spin_field_sq
    comm_sq_rhs = 0.25 * quartic_scale * spin_field_sq

    def spectral_norm(matrix):
        return float(np.linalg.norm(matrix, 2))

    checks = []

    lhs_norm = spectral_norm(clip(comm_osq_e))
    bound = RELATION_TOL * spectral_norm(clip(odd_sq)) * spectral_norm(clip(even))
    checks.append(
        {
            "name": "odd_square_commutes_with_even",
            "norm": lhs_norm,
            "bound": bound,
            "passed": bool(lhs_norm <= max(bound, RELATION_TOL * 1e-8)),
        }
    )

    for name, lhs, rhs in (
        ("odd_even_commutator_closed_form", comm_oe, commutator_rhs),
        ("nested_anticommutator_closed_form", anti, anti_rhs),
        ("commutator_square_closed_form", comm_sq, comm_sq_rhs),
    ):
        residual = float(np.abs(clip(lhs - rhs)).max())
        checks.append(
            {
                "name": name,
                "max_abs_residual": residual,
                "max_abs_value": float(np.abs(clip(lhs)).max()),
                "tolerance": RELATION_TOL,
                "passed": bool(residual < RELATION_TOL),
            }
        )

    ratio_residual = float(np.abs(clip(comm_sq + 0.5 * anti)).max())
    checks.append(
        {
            "name": "quartic_ratio_minus_half",
            "max_abs_residual": ratio_residual,
            "tolerance": RELATION_TOL,
            "passed": bool(ratio_residual < RELATION_TOL),
        }
    )

    status = "pass" if all(check["passed"] for check in checks) else "fail"
    return {
        "model": model.to_dict(),
        "N": int(N),
        "checks": checks,
        "status": status,
    }


def report_json(report: dict) -> str:
    """Serialize a report dict deterministically."""
    return json.dumps(report, indent=2, sort_keys=True)
