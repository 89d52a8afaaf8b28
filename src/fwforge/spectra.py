"""Landau-level spectra of relativistic wave equations in a uniform magnetic field.

This module checks the closed-form energy spectra and scaling claims
numerically.  For each particle kind (spin 0, spin 1/2, spin 1) it builds the
chosen representation of the Hamiltonian on a truncated Landau basis,
diagonalizes each block of a conserved label, and compares the eigenvalues
of the "interior" blocks, clear of the truncation edge, against closed-form
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

Basis layout and blocks
-----------------------
Matrices act on (Landau level n) x (internal) indices, n leading, with
truncated ladder operators for the transverse momenta.  At zero
longitudinal momentum every form conserves the label n + sign(e) (s - m_s),
Landau level plus spin lowering (Johnson & Lippmann, Phys. Rev. 76, 828
(1949)); entries between labels are exactly zero.  A block is interior when
none of its states lies in the top ``edge_levels`` Landau levels, so its
entries are those of the untruncated operator: no tolerance is involved.

The spectra never form the matrix on all N levels.  A block spans at most
1 + max(``SPIN_LOWERING``) levels.  Its entries are sums of products of at
most two ladder operators, each moving one level, and of diagonal operators,
so they equal those of the full basis on a window of consecutive levels that
reaches one level past the block at either end: 3 + max(``SPIN_LOWERING``)
levels, 5 for spin 1.
Each window starts one level below its block, clipped into [0, N - width],
so the real bottom level and the real truncation at level N - 1 are the only
ends a block ever meets.  The windows are built a chunk at a time, their
blocks cut out and solved in one batched call per block size.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

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

#: Spin lowering s - m_s of each internal component, in basis order.
SPIN_LOWERING = {"spin0": (0, 0), "spin12": (0, 1, 0, 1), "spin1": (0, 0, 1, 1, 2, 2)}

#: Residual above which an interior eigenvalue counts as unmatched.
MATCH_TOL = 1e-6

#: Tolerance for the operator-relation checks and cross-representation tests.
RELATION_TOL = 1e-8

#: Windows built at once, so memory stays linear in the number of levels.
WINDOW_CHUNK = 64


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
    """Raised when the interior blocks hold too few eigenvalues."""


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
        for name in ("m", "hbar", "e", "B", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidModelError(f"{name} must be finite, got {value}")
        # The lowest spin-1/2 level squares to m^2 + |e| hbar B - e hbar B:
        # an m^2 lost to rounding leaves it no mass.  (A splitting that
        # overflows is left to the overflow error.)
        splitting = abs(self.e) * self.hbar * self.B
        if (
            self.particle == "spin12"
            and math.isfinite(splitting)
            and self.m * self.m + splitting == splitting
        ):
            raise InvalidModelError(
                f"m = {self.m} is too small against |e| hbar B = {splitting}: "
                "m^2 is lost to rounding in m^2 + |e| hbar B"
            )

    @property
    def edge_levels(self) -> int:
        """Top Landau levels treated as truncation edge (4 for spin 1 because
        the squared spin-momentum coupling hops two levels at a time)."""
        return 4 if self.particle == "spin1" else 2

    @property
    def internal_dim(self) -> int:
        return INTERNAL_DIM[self.particle]

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
#
# Operators act on ``levels``: consecutive Landau levels, (width,) for one
# window or (windows, width) for a stack, and the matrices carry the same
# leading axes.


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, broadcast over the others."""
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    shape = product.shape
    return product.reshape(shape[:-4] + (shape[-4] * shape[-3], shape[-2] * shape[-1]))


def _annihilation(levels: np.ndarray) -> np.ndarray:
    """a|n> = sqrt(n)|n - 1>, truncated at both ends of the levels."""
    width = levels.shape[-1]
    a = np.zeros(levels.shape + (width,), dtype=complex)
    index = np.arange(width - 1)
    a[..., index, index + 1] = np.sqrt(levels[..., 1:])
    return a


def _transverse_momenta(e: float, hbar: float, B: float, levels: np.ndarray):
    """Return (pi_x, pi_y) on the truncated Landau levels.

    The ladder combination is chosen by the sign of the charge so that
    [pi_x, pi_y] = i e hbar B holds with signed e, and
    pi_x^2 + pi_y^2 is diagonal with entries (2n + 1)|e| hbar B away from
    the ends.
    """
    omega = abs(e) * hbar * B
    if omega == 0.0:
        zero = np.zeros(levels.shape + levels.shape[-1:], dtype=complex)
        return zero, zero.copy()
    sign = 1.0 if e > 0 else -1.0
    a = _annihilation(levels)
    adag = a.swapaxes(-1, -2).conj()
    scale = math.sqrt(omega / 2.0)
    pi_x = scale * (a + adag)
    pi_y = -1j * sign * scale * (a - adag)
    return pi_x, pi_y


def _dirac_matrices():
    """beta, alpha_x, alpha_y, Sigma_z, Pi_z of the Dirac representation:
    rho_3 x 1, rho_1 x sigma_x, rho_1 x sigma_y, 1 x sigma_3, rho_3 x sigma_3,
    where rho and sigma are the same Pauli matrices."""
    rho_1, rho_2, rho_3 = _rho_matrices()
    eye = np.eye(2, dtype=complex)
    pairs = ((rho_3, eye), (rho_1, rho_1), (rho_1, rho_2), (eye, rho_3), (rho_3, rho_3))
    return tuple(np.kron(a, b) for a, b in pairs)


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
    """Square root of a diagonal positive-definite matrix, or of each one in
    a stack, entry by entry.

    Every radicand the builders form is exactly diagonal on the Landau
    basis (|n> x spin), so its eigenvalues are its diagonal entries.  An
    off-diagonal entry or a complex diagonal entry raises ValueError.
    """
    diagonal = np.diagonal(matrix, axis1=-2, axis2=-1)
    if np.count_nonzero(matrix) != np.count_nonzero(diagonal):
        raise ValueError("square root of a matrix with off-diagonal entries")
    if np.iscomplexobj(diagonal) and np.any(diagonal.imag):
        raise ValueError("square root of a matrix with complex diagonal entries")
    values = diagonal.real
    smallest = float(values.min())
    if smallest <= 0.0:
        raise SquareRootDomainError(smallest)
    root = np.zeros_like(matrix)
    index = np.arange(matrix.shape[-1])
    root[..., index, index] = np.sqrt(values)
    return root


def _anomalous_moment(model: SpectralModel) -> float:
    """Spin-1/2 anomalous magnetic moment (g - 2) e hbar / (4 m)."""
    return (model.g - 2.0) * model.e * model.hbar / (4.0 * model.m)


def _spin1_amm(model: SpectralModel) -> float:
    """Spin-1 anomalous-moment energy scale e hbar (g - 2) B / (2 m)."""
    return model.e * model.hbar * (model.g - 2.0) * model.B / (2.0 * model.m)


# -- model matrices ------------------------------------------------------------------


def _spin1_kernels(model: SpectralModel, levels: np.ndarray):
    """Shared spin-1 building blocks on the (Landau x spin) product space."""
    pi_x, pi_y = _transverse_momenta(model.e, model.hbar, model.B, levels)
    pi_sq = pi_x @ pi_x + pi_y @ pi_y
    s_x, s_y, s_z = _spin1_matrices()
    eye_spin = np.eye(3, dtype=complex)
    eye_landau = np.eye(levels.shape[-1], dtype=complex)
    spin_momentum = _kron(pi_x, s_x) + _kron(pi_y, s_y)
    return {
        "pi_x": pi_x,
        "pi_y": pi_y,
        "pi_sq_full": _kron(pi_sq, eye_spin),
        "s_x": s_x,
        "s_y": s_y,
        "s_z_full": np.kron(eye_landau, s_z),
        "s_z_sq_full": np.kron(eye_landau, s_z @ s_z),
        "spin_momentum": spin_momentum,
        "eye": np.eye(3 * levels.shape[-1], dtype=complex),
    }


def _spin1_first_order(model: SpectralModel, kernels):
    """Parts (beta_part, E, O) of the six-component Sakata-Taketani
    Hamiltonian H = beta_part + E + O: the rho_3 mass term with its field
    couplings, the even anomalous-moment term, and the odd part."""
    _, rho_2, rho_3 = _rho_matrices()
    m, hbar, e, B = model.m, model.hbar, model.e, model.B
    amm = _spin1_amm(model)
    beta_part = _kron(
        m * kernels["eye"]
        + kernels["pi_sq_full"] / (2.0 * m)
        - (e * hbar * B / m) * kernels["s_z_full"],
        rho_3,
    )
    even = np.kron(-amm * kernels["s_z_full"], rho_3)
    odd_core = (
        kernels["pi_sq_full"] / (2.0 * m)
        - kernels["spin_momentum"] @ kernels["spin_momentum"] / m
        + amm * kernels["s_z_full"]
    )
    return beta_part, even, _kron(1j * odd_core, rho_2)


def _build_spin0(model: SpectralModel, levels: np.ndarray) -> np.ndarray:
    pi_x, pi_y = _transverse_momenta(model.e, model.hbar, model.B, levels)
    radicand = (model.m**2) * np.eye(levels.shape[-1], dtype=complex) + pi_x @ pi_x + pi_y @ pi_y
    root = hermitian_sqrt(radicand)
    return _kron(root, _rho_matrices()[2])


def _build_spin12(model: SpectralModel, levels: np.ndarray) -> np.ndarray:
    pi_x, pi_y = _transverse_momenta(model.e, model.hbar, model.B, levels)
    beta, alpha_x, alpha_y, sigma_z, pi_z = _dirac_matrices()
    eye_landau = np.eye(levels.shape[-1], dtype=complex)
    moment = _anomalous_moment(model)
    amm_term = moment * model.B * np.kron(eye_landau, pi_z)
    if model.representation == "original":
        return (
            model.m * np.kron(eye_landau, beta)
            + _kron(pi_x, alpha_x)
            + _kron(pi_y, alpha_y)
            - amm_term
        )
    radicand = (
        (model.m**2) * np.eye(4 * levels.shape[-1], dtype=complex)
        + _kron(pi_x @ pi_x + pi_y @ pi_y, np.eye(4, dtype=complex))
        - model.e * model.hbar * model.B * np.kron(eye_landau, sigma_z)
    )
    return np.kron(eye_landau, beta) @ hermitian_sqrt(radicand) - amm_term


def _build_spin1(model: SpectralModel, levels: np.ndarray) -> np.ndarray:
    kernels = _spin1_kernels(model, levels)
    if model.representation == "original":
        beta_part, even, odd = _spin1_first_order(model, kernels)
        return beta_part + even + odd

    rho_3 = _rho_matrices()[2]
    m, hbar, e, B, g = model.m, model.hbar, model.e, model.B, model.g
    amm = _spin1_amm(model)
    radicand = (
        (m**2) * kernels["eye"]
        + kernels["pi_sq_full"]
        - 2.0 * e * hbar * B * kernels["s_z_full"]
    )
    if model.representation == "fw":
        inner = hermitian_sqrt(radicand) - amm * kernels["s_z_full"]
        return _kron(inner, rho_3)

    # Corrected block-diagonal form: keep the second-order field terms.
    radicand = radicand - (
        (e**2) * (hbar**2) * g * (g - 2.0) * (B**2) / (4.0 * m**2)
    ) * kernels["s_z_sq_full"]
    energy_root = hermitian_sqrt(radicand)
    # The root is diagonal, so (root^2 + m root)^-1 is taken entry by
    # entry and multiplies the core from either side as a broadcast.
    root = np.diagonal(energy_root, axis1=-2, axis2=-1)
    kernel = 1.0 / (root * root + m * root)
    cross = _kron(kernels["pi_y"], kernels["s_x"]) - _kron(
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
        + weight * (
            kernel[..., :, None] * correction_core + correction_core * kernel[..., None, :]
        )
    )
    return _kron(inner, rho_3)


def build_model_matrix(model: SpectralModel, *, levels: np.ndarray | None = None) -> np.ndarray:
    """Complex Hamiltonian matrix on the (Landau x internal) basis.

    By default the basis holds all N Landau levels.  ``levels`` of shape
    (windows, width), each row consecutive levels, asks instead for the
    stack of the matrices on those windows, each truncated at its ends as
    the full basis is at level N - 1.
    """
    if levels is None:
        levels = np.arange(model.N)
    if model.particle == "spin0":
        return _build_spin0(model, levels)
    if model.particle == "spin12":
        return _build_spin12(model, levels)
    return _build_spin1(model, levels)


# -- conserved blocks and diagonalization --------------------------------------------


def _blocks(model: SpectralModel):
    """Conserved label n + sign(e) (s - m_s) of each basis state, and whether
    the state's block is interior: no state with that label lies in the top
    ``edge_levels`` Landau levels."""
    landau = np.repeat(np.arange(model.N), model.internal_dim)
    lowering = np.tile(SPIN_LOWERING[model.particle], model.N)
    labels = landau + int(np.sign(model.e)) * lowering
    edge_labels = labels[landau >= model.N - model.edge_levels]
    return labels, ~np.isin(labels, edge_labels)


def _window_width(model: SpectralModel) -> int:
    """Levels of a window: a block's 1 + max lowering levels and one more at
    either end."""
    return 3 + max(SPIN_LOWERING[model.particle])


def _block_groups(model: SpectralModel, labels: np.ndarray, keep: np.ndarray | None = None):
    """The conserved blocks, of every state or only of the states ``keep``
    marks, grouped by size.  Each group is (states, starts): the basis
    indices of each block's states, in basis order, and the first level of
    the window that holds the block."""
    order = np.argsort(labels, kind="stable")
    _, first, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    # Within a label, basis order is level order: the first state is lowest.
    lowest = order[first] // model.internal_dim
    starts = np.clip(lowest - 1, 0, model.N - _window_width(model))
    chosen = np.ones(len(first), dtype=bool) if keep is None else keep[order[first]]
    groups = []
    for size in np.unique(sizes[chosen]):
        pick = chosen & (sizes == size)
        groups.append((order[first[pick, None] + np.arange(size)], starts[pick]))
    return groups


def _gather_blocks(model: SpectralModel, build, groups):
    """Cut each block of the groups out of the matrices that ``build(levels)``
    returns on its window, ``WINDOW_CHUNK`` blocks at a time.  Returns per
    group one (blocks, size, size) stack per matrix."""
    window = np.arange(_window_width(model))
    gathered = []
    for states, starts in groups:
        pieces = []
        for at in range(0, len(starts), WINDOW_CHUNK):
            chunk = starts[at : at + WINDOW_CHUNK]
            local = states[at : at + WINDOW_CHUNK] - model.internal_dim * chunk[:, None]
            index = (np.arange(len(chunk))[:, None, None], local[:, :, None], local[:, None, :])
            matrices = build(chunk[:, None] + window)
            pieces.append(
                [np.broadcast_to(m, (len(chunk),) + m.shape[-2:])[index] for m in matrices]
            )
        gathered.append([np.concatenate(stacks) for stacks in zip(*pieces)])
    return gathered


def _eigensystem(model: SpectralModel):
    """Eigenvalues (complex), sorted by real part, with interior flags; one
    batched solve per block size."""
    solve = np.linalg.eigvals if model.representation == "original" else np.linalg.eigvalsh
    labels, interior = _blocks(model)
    groups = _block_groups(model, labels)
    stacks = _gather_blocks(
        model, lambda levels: (build_model_matrix(model, levels=levels),), groups
    )
    values = np.concatenate([solve(blocks).ravel() for blocks, in stacks]).astype(complex)
    # Pair each eigenvalue with one state of its block, which carries the
    # block's label and flag; label order keeps ties as a solve per label had.
    states = np.concatenate([block_states.ravel() for block_states, _ in groups])
    by_label = np.argsort(labels[states], kind="stable")
    values, interior = values[by_label], interior[states[by_label]]
    order = np.lexsort((values.imag, values.real))
    return values[order], interior[order]


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
        shift = -lam * _spin1_amm(model)
    if radicand <= 0:
        return None
    return math.sqrt(radicand) + shift


def _closed_form_table(model: SpectralModel, max_level: int) -> np.ndarray:
    """All candidate (energy, n, lambda) rows on both energy branches."""
    table = []
    for lam in LAMBDA_VALUES[model.particle]:
        for n in range(max_level):
            energy = closed_form_energy(model, n, lam)
            if energy is None:
                continue
            table.append((energy, n, lam))
            table.append((-energy, n, lam))
    return np.array(table)


def _nearest(values: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Index of the energy nearest each value: on a tie in distance the first
    in table order, as ``min`` over the table picks it."""
    order = np.argsort(energies, kind="stable")
    # Each distinct energy, ascending, and the first table index holding it.
    distinct, at = np.unique(energies[order], return_index=True)
    first = order[at]
    # The nearest distinct energy is one of the two around the insertion point.
    upper = np.minimum(np.searchsorted(distinct, values), len(distinct) - 1)
    lower = np.maximum(upper - 1, 0)
    below, above = np.abs(values - distinct[lower]), np.abs(values - distinct[upper])
    take_upper = (above < below) | ((above == below) & (first[upper] < first[lower]))
    return np.where(take_upper, first[upper], first[lower])


def compare_closed_form(model: SpectralModel) -> dict:
    """Match every interior eigenvalue to the nearest closed-form level.

    Returns a report dict with one entry per eigenvalue; interior entries
    carry the best-fitting Landau index, spin projection, and relative
    residual.  The spin-projection label is searched, not assumed, because
    the closed-form sign conventions are not pinned a priori.
    """
    values, interior = _eigensystem(model)
    table = _closed_form_table(model, model.N)
    inner = values.real[interior]
    nearest = table[_nearest(inner, table[:, 0])]
    residuals = np.abs(inner - nearest[:, 0]) / np.maximum(np.abs(nearest[:, 0]), 1e-300)
    imag_parts = np.abs(values.imag[interior])
    lambdas = nearest[:, 2].astype(int).tolist()
    if model.particle == "spin0":
        lambdas = [None] * len(lambdas)
    matches = zip(nearest[:, 1].astype(int).tolist(), lambdas, residuals.tolist())
    entries = []
    for value, is_interior in zip(values.tolist(), interior.tolist()):
        n, lam, residual = next(matches) if is_interior else (None, None, None)
        entries.append(
            {
                "value": value.real,
                "imag_abs": abs(value.imag),
                "interior": is_interior,
                "matched_n": n,
                "matched_lambda": lam,
                "residual": residual,
            }
        )
    found = len(residuals) > 0
    unmatched = int(np.count_nonzero(residuals > MATCH_TOL))
    status = "pass" if found and not unmatched and imag_parts.max() <= RELATION_TOL else "fail"
    return {
        "model": model.to_dict(),
        "N": int(model.N),
        "eigenvalues": entries,
        "scan": None,
        "interior_count": len(residuals),
        "unmatched_interior": unmatched,
        "max_interior_residual": float(residuals.max()) if found else None,
        "max_interior_imag": float(imag_parts.max()) if found else None,
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
    base = SpectralModel("spin1", "original", m=m, hbar=hbar, e=e, B=B, N=N)
    x_values = []
    residuals = []
    for g in g_values:
        model = dataclasses.replace(base, g=g)
        lowest = np.array(_interior_positive(model, levels))
        energies = _closed_form_table(model, model.N)[:, 0]
        energies = energies[energies > 0]
        worst = float(np.abs(lowest - energies[_nearest(lowest, energies)]).max(initial=0.0))
        x_values.append(abs(g - 2.0))
        residuals.append(worst)
    slope = _fit_loglog_slope(x_values, residuals)
    window = (1.8, 2.2)
    status = "pass" if slope is not None and window[0] <= slope <= window[1] else "fail"
    return {
        "model": {**base.to_dict(), "g": g_values},
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
    base = SpectralModel("spin1", "fw_corrected", m=m, hbar=hbar, e=e, g=g, N=N)
    x_values = []
    residuals = []
    for B in B_values:
        corrected = dataclasses.replace(base, B=B)
        reference = dataclasses.replace(corrected, representation="original")
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
        "model": {**base.to_dict(), "B": B_values},
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

    Checks, on every interior block:

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
    eye_rho, rho_1 = np.eye(2, dtype=complex), _rho_matrices()[0]

    def parts(levels):
        kernels = _spin1_kernels(model, levels)
        _, even, odd = _spin1_first_order(model, kernels)
        return (
            even,
            odd,
            np.kron(kernels["s_z_sq_full"], eye_rho),
            np.kron(kernels["s_z_sq_full"] * (B**2), rho_1),
        )

    # The parts are block-diagonal, so each product restricted to an interior
    # block is the product of the restricted parts.  Zero padding to one size
    # keeps that, and every norm below.
    labels, interior = _blocks(model)
    gathered = _gather_blocks(model, parts, _block_groups(model, labels, interior))
    size = max(stacks[0].shape[-1] for stacks in gathered)

    def padded(blocks):
        extra = size - blocks.shape[-1]
        return np.pad(blocks, ((0, 0), (0, extra), (0, extra)))

    even, odd, s_z_sq, s_z_sq_rho_1 = (
        np.concatenate([padded(blocks) for blocks in part]) for part in zip(*gathered)
    )
    spin_field_sq = (B**2) * s_z_sq

    odd_sq = odd @ odd
    comm_oe = odd @ even - even @ odd
    comm_osq_e = odd_sq @ even - even @ odd_sq
    nested = comm_oe @ even - even @ comm_oe
    anti = odd @ nested + nested @ odd
    comm_sq = comm_oe @ comm_oe

    commutator_rhs = (
        (e**2) * (hbar**2) * (g - 1.0) * (g - 2.0) / (2.0 * m**2)
    ) * s_z_sq_rho_1
    quartic_scale = (
        (e**4) * (hbar**4) * ((g - 1.0) ** 2) * ((g - 2.0) ** 2) / (m**4)
    ) * (B**2)
    anti_rhs = -0.5 * quartic_scale * spin_field_sq
    comm_sq_rhs = 0.25 * quartic_scale * spin_field_sq

    def spectral_norm(matrix):
        # A block-diagonal matrix's largest singular value is its blocks' largest.
        return float(np.linalg.norm(matrix, 2, axis=(-2, -1)).max())

    checks = []

    lhs_norm = spectral_norm(comm_osq_e)
    bound = RELATION_TOL * spectral_norm(odd_sq) * spectral_norm(even)
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
        residual = float(np.abs(lhs - rhs).max())
        checks.append(
            {
                "name": name,
                "max_abs_residual": residual,
                "max_abs_value": float(np.abs(lhs).max()),
                "tolerance": RELATION_TOL,
                "passed": bool(residual < RELATION_TOL),
            }
        )

    ratio_residual = float(np.abs(comm_sq + 0.5 * anti).max())
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
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
