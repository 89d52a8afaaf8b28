"""Concrete Dirac-matrix instantiation of the block-diagonalization results.

The abstract modules work in a free algebra where the odd and even inputs
stay uninterpreted letters.  This module substitutes actual operators --
4x4 Dirac matrices tensored with momentum operators and field functions --
and re-derives two concrete results:

* the electrostatic Hamiltonian: with the even input set to ``e Phi`` and
  the odd input to ``alpha . p``, the four bracket interiors of the
  order-2 closed form reduce, after normal ordering, to the spin-orbit,
  Darwin, directional-curvature, and squared-power-transfer terms
  (:func:`derive_electrostatic`);
* the uniform-field commutator of the odd and even inputs for a spin-1/2
  particle with an anomalous magnetic moment, which must close on exactly
  three matrix channels (:func:`verify_uniform_commutator`).

Coefficients are Gaussian rationals (:class:`QQi`, exact rational real
and imaginary parts).  Matrix factors are labels of a fixed 16-element
basis of the 4x4 matrix algebra.  Every basis matrix is a monomial:
each row holds one entry, a power of i.  The basis is written once, as
16 monomials ``(columns, powers)`` built as Kronecker products
rho (x) sigma of the Pauli monomials; :data:`MATRIX_BASIS` is its copy
with ``QQi`` entries.  Monomials multiply by composing columns and
adding powers of i, so a product of two labels is one label and one
phase in {1, -1, i, -i}, looked up in a table of the 64 phased basis
monomials (:func:`_basis_product`).  The representation identities are
exact equalities of monomials (:func:`matrix_identity_report`); no 4x4
matrix is ever multiplied.  The four bracket interiors are not written
here: they are read as text from ``stepwise.ORDER2_BLOCKS`` and
evaluated on the concrete inputs by ``ncalg.evaluate``.  Operator words
are normal ordered with every momentum-past-function swap emitting one
explicit power of hbar, which is what makes the hbar-grading of each
derived term exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping

from fwforge.lang import parse_expr
from fwforge.ncalg import evaluate
from fwforge.stepwise import ORDER2_BLOCKS

__all__ = [
    "QQi",
    "ELECTROSTATIC",
    "UNIFORM",
    "MATRIX_BASIS",
    "MatrixIdentityError",
    "ConcreteExpr",
    "matrix_factor",
    "momentum",
    "field_factor",
    "matrix_identity_report",
    "derive_electrostatic",
    "verify_uniform_commutator",
]


# -- Gaussian rationals -------------------------------------------------------------


@dataclass(frozen=True)
class QQi:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re=0, im=0) -> "QQi":
        return QQi(Fraction(re), Fraction(im))

    def __add__(self, other: "QQi") -> "QQi":
        return QQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QQi") -> "QQi":
        return QQi(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QQi":
        return QQi(-self.re, -self.im)

    def __mul__(self, other) -> "QQi":
        if isinstance(other, QQi):
            return QQi(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        factor = Fraction(other)
        return QQi(self.re * factor, self.im * factor)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        imag = abs(self.im)
        imag_text = "i" if imag == 1 else f"{imag}*i"
        return f"({self.re}{sign}{imag_text})"


_ZERO = QQi.of(0)
_ONE = QQi.of(1)
_I = QQi.of(0, 1)


# -- the Dirac basis as monomials --------------------------------------------------
#
# Every basis matrix is a monomial (columns, powers): row r holds
# i**powers[r] in column columns[r] and zeros elsewhere.

_AXES = ("x", "y", "z")
_EPSILON = {
    (0, 1, 2): 1,
    (1, 2, 0): 1,
    (2, 0, 1): 1,
    (1, 0, 2): -1,
    (2, 1, 0): -1,
    (0, 2, 1): -1,
}

Monomial = tuple
Matrix = tuple  # 4-tuple of 4-tuples of QQi

_PHASES = (_ONE, _I, -_ONE, -_I)  # i**0 .. i**3


def _m_mul(x: Monomial, y: Monomial) -> Monomial:
    """x @ y: row r takes x's entry in column c and y's row c, so columns
    compose and powers of i add."""
    (x_columns, x_powers), (y_columns, y_powers) = x, y
    return (
        tuple(y_columns[c] for c in x_columns),
        tuple((p + y_powers[c]) % 4 for p, c in zip(x_powers, x_columns)),
    )


def _m_phase(x: Monomial, k: int) -> Monomial:
    """i**k times x."""
    columns, powers = x
    return columns, tuple((p + k) % 4 for p in powers)


def _m_kron(x: Monomial, y: Monomial) -> Monomial:
    """The Kronecker product: block (i, j) of the result is x[i][j] times y."""
    (x_columns, x_powers), (y_columns, y_powers) = x, y
    return (
        tuple(len(y_columns) * c + d for c in x_columns for d in y_columns),
        tuple((p + q) % 4 for p in x_powers for q in y_powers),
    )


def _rotate(z: tuple[int, int], k: int) -> tuple[int, int]:
    """The Gaussian integer z = (re, im) times i**k."""
    re, im = z
    return ((re, im), (-im, re), (-re, -im), (im, -re))[k % 4]


def _gauss_sum(parts: Iterable[tuple[int, int]]) -> tuple[int, int]:
    parts = list(parts)
    return sum(re for re, _ in parts), sum(im for _, im in parts)


def _m_trace(x: Monomial, y: Monomial) -> tuple[int, int]:
    """tr(x^dagger y), four times the coordinate of y along a basis matrix x."""
    return _gauss_sum(_rotate((1, 0), q - p) for c, p, d, q in zip(*x, *y) if c == d)


def _dirac_basis() -> dict[str, Monomial]:
    """The 16 Dirac matrices as Kronecker products rho (x) sigma: rho acts
    on the upper and lower components, sigma on the spin."""
    one = (0, 1), (0, 0)
    sigma = ((1, 0), (0, 0)), ((1, 0), (3, 1)), ((0, 1), (0, 2))
    rho1, rho3 = sigma[0], sigma[2]
    i_rho2 = _m_mul(rho3, rho1)
    # Chirality matrix fixed to MINUS rho_1 (x) 1.  The sign is a
    # representation choice; it is pinned by requiring that the
    # uniform-field commutator close with the channel weights asserted in
    # matrix_identity_report, and every identity is checked on the
    # monomials rather than assumed.
    basis = {
        "1": _m_kron(one, one),
        "beta": _m_kron(rho3, one),
        "gamma5": _m_kron(_m_phase(rho1, 2), one),
        "beta_gamma5": _m_kron(_m_phase(i_rho2, 2), one),
    }
    for name, rho in (("Sigma", one), ("alpha", rho1), ("gamma", i_rho2), ("Pi", rho3)):
        for axis, s in zip(_AXES, sigma):
            basis[f"{name}_{axis}"] = _m_kron(rho, s)
    return basis


# The one source of the basis: the identity checks and the structure
# constants read it, and MATRIX_BASIS is its QQi copy.
_MONOMIALS: dict[str, Monomial] = _dirac_basis()
MATRIX_BASIS: dict[str, Matrix] = {
    label: tuple(
        tuple(_PHASES[p] if column == c else _ZERO for column in range(4))
        for c, p in zip(*monomial)
    )
    for label, monomial in _MONOMIALS.items()
}
_LABEL_ORDER = {label: index for index, label in enumerate(MATRIX_BASIS)}


def _product_table(basis: Mapping[str, Monomial]) -> dict[Monomial, tuple[str, QQi]]:
    """``(label, phase)`` of each of the basis monomials times each phase."""
    table: dict[Monomial, tuple[str, QQi]] = {}
    for label, monomial in basis.items():
        for k, phase in enumerate(_PHASES):
            key = _m_phase(monomial, k)
            if key in table:
                raise ValueError(
                    f"basis elements {table[key][0]} and {label} agree up to a phase"
                )
            table[key] = label, phase
    return table


_PRODUCTS = _product_table(_MONOMIALS)


def _basis_product(left: str, right: str) -> tuple[str, QQi]:
    """``(label, phase)`` with left @ right == phase * label, phase in {1, -1, i, -i}."""
    try:
        return _PRODUCTS[_m_mul(_MONOMIALS[left], _MONOMIALS[right])]
    except KeyError:
        raise ValueError(f"{left} @ {right} is not a basis element times a phase") from None


# -- scalar and operator monomials ---------------------------------------------------

ELECTROSTATIC = "electrostatic"
UNIFORM = "uniform"

_FORMAL_SCALARS = ("e", "hbar", "mu_prime", "g", "m")
_FIELD_SCALARS = ("E_x", "E_y", "E_z", "B_x", "B_y", "B_z")
_SCALAR_ORDER = {name: index for index, name in enumerate(_FORMAL_SCALARS + _FIELD_SCALARS)}

ScalarKey = tuple  # sorted tuple of (symbol, exponent)
Factor = tuple  # ("f", (ax, ay, az)) or ("p", axis)
Word = tuple  # tuple of factors
# (matrix label, "", ScalarKey, Word): the second field is always empty,
# kept because bench/checks.py unpacks four-field keys from terms().
TermKey = tuple


def _scalar_merge(a: ScalarKey, b: ScalarKey) -> ScalarKey:
    counts = dict(a)
    for name, exp in b:
        counts[name] = counts.get(name, 0) + exp
    return tuple(
        sorted(
            ((name, exp) for name, exp in counts.items() if exp),
            key=lambda item: _SCALAR_ORDER[item[0]],
        )
    )


def _scalar_of(**exponents: int) -> ScalarKey:
    for name in exponents:
        if name not in _SCALAR_ORDER:
            raise ValueError(f"unknown scalar symbol: {name}")
    return _scalar_merge((), tuple(exponents.items()))


def _accumulate(out: dict, key, coeff: QQi) -> None:
    """Add coeff to out[key], dropping the key when the total is zero."""
    total = out.get(key, _ZERO) + coeff
    if total.is_zero():
        out.pop(key, None)
    else:
        out[key] = total


def _hbar_power(scalars: ScalarKey) -> int:
    for name, exp in scalars:
        if name == "hbar":
            return exp
    return 0


def _factor_rank(factor: Factor) -> tuple:
    kind, payload = factor
    return (0, payload) if kind == "f" else (1, payload)


class MatrixIdentityError(RuntimeError):
    """A representation identity failed on the explicit matrices."""


class ConcreteExpr:
    """Sum of (matrix-basis factor) x (scalar monomial) x (operator word).

    Words are stored as written; :meth:`normal_order` rewrites them into
    the canonical field-functions-left form, emitting one power of hbar
    per swap.
    """

    __slots__ = ("mode", "_terms")

    def __init__(self, mode: str, terms: Mapping[TermKey, QQi] | None = None):
        if mode not in (ELECTROSTATIC, UNIFORM):
            raise ValueError(f"unknown mode: {mode}")
        self.mode = mode
        data: dict[TermKey, QQi] = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    data[key] = coeff
        self._terms = data

    # construction helpers ----------------------------------------------------

    @staticmethod
    def zero(mode: str) -> "ConcreteExpr":
        return ConcreteExpr(mode)

    @staticmethod
    def term(mode: str, matrix: str = "1", word: Word = ()) -> "ConcreteExpr":
        """The single term matrix x word with coefficient 1."""
        if matrix not in MATRIX_BASIS:
            raise ValueError(f"unknown matrix label: {matrix}")
        return ConcreteExpr(mode, {(matrix, "", (), word): _ONE})

    # inspection ----------------------------------------------------------------

    def terms(self) -> list[tuple[TermKey, QQi]]:
        return sorted(self._terms.items(), key=lambda item: _term_sort_key(item[0]))

    def __iter__(self) -> Iterator[tuple[TermKey, QQi]]:
        return iter(self.terms())

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConcreteExpr)
            and self.mode == other.mode
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        if self.is_zero():
            return f"ConcreteExpr({self.mode}, 0)"
        return f"ConcreteExpr({self.mode}, {' ; '.join(term_strings(self))})"

    # linear structure ------------------------------------------------------------

    def add(self, other: "ConcreteExpr") -> "ConcreteExpr":
        self._check_mode(other)
        data = dict(self._terms)
        for key, coeff in other._terms.items():
            _accumulate(data, key, coeff)
        return ConcreteExpr(self.mode, data)

    def sub(self, other: "ConcreteExpr") -> "ConcreteExpr":
        return self.add(other.scale(QQi.of(-1)))

    def scale(self, factor) -> "ConcreteExpr":
        if not isinstance(factor, QQi):
            factor = QQi.of(Fraction(factor))
        if factor.is_zero():
            return ConcreteExpr(self.mode)
        return ConcreteExpr(
            self.mode, {key: coeff * factor for key, coeff in self._terms.items()}
        )

    def scalar_mul(self, **exponents: int) -> "ConcreteExpr":
        extra = _scalar_of(**exponents)
        return ConcreteExpr(
            self.mode,
            {
                (matrix, "", _scalar_merge(scalars, extra), word): coeff
                for (matrix, _, scalars, word), coeff in self._terms.items()
            },
        )

    # multiplicative structure ------------------------------------------------------

    def mul(self, other: "ConcreteExpr") -> "ConcreteExpr":
        """Raw product: labels multiply by structure constants, words concatenate."""
        self._check_mode(other)
        out: dict[TermKey, QQi] = {}
        for (mat1, _, sc1, w1), c1 in self._terms.items():
            for (mat2, _, sc2, w2), c2 in other._terms.items():
                label, phase = _basis_product(mat1, mat2)
                key = (label, "", _scalar_merge(sc1, sc2), w1 + w2)
                _accumulate(out, key, c1 * c2 * phase)
        return ConcreteExpr(self.mode, out)

    def commutator(self, other: "ConcreteExpr") -> "ConcreteExpr":
        return self.mul(other).sub(other.mul(self))

    # normal ordering ---------------------------------------------------------------

    def normal_order(self) -> "ConcreteExpr":
        """Rewrite every word into the canonical form: field functions on
        the left (sorted by derivative multi-index), momenta on the right
        (sorted by axis).  Each momentum-past-function swap emits one
        power of hbar times the derivative; in uniform mode momentum
        reorderings emit the magnetic central terms.
        """
        out: dict[TermKey, QQi] = {}
        for (matrix, _, scalars, word), coeff in self._terms.items():
            for extra_coeff, extra_scalars, canonical in _normalize_word(self.mode, word):
                key = (matrix, "", _scalar_merge(scalars, extra_scalars), canonical)
                _accumulate(out, key, coeff * extra_coeff)
        return ConcreteExpr(self.mode, out)

    # hbar grading --------------------------------------------------------------------

    def split_hbar(self, max_power: int) -> tuple["ConcreteExpr", "ConcreteExpr"]:
        """Split into (terms with hbar power <= max_power, the rest)."""
        low: dict[TermKey, QQi] = {}
        high: dict[TermKey, QQi] = {}
        for key, coeff in self._terms.items():
            target = low if _hbar_power(key[2]) <= max_power else high
            target[key] = coeff
        return ConcreteExpr(self.mode, low), ConcreteExpr(self.mode, high)

    def _check_mode(self, other: "ConcreteExpr") -> None:
        if self.mode != other.mode:
            raise ValueError(f"mode mismatch: {self.mode} vs {other.mode}")


def _term_sort_key(key: TermKey) -> tuple:
    matrix, _, scalars, word = key
    return (_LABEL_ORDER[matrix], scalars, word)


def _normalize_word(mode: str, word: Word) -> list[tuple[QQi, ScalarKey, Word]]:
    results: dict[tuple[ScalarKey, Word], QQi] = {}
    stack: list[tuple[QQi, ScalarKey, Word]] = [(_ONE, (), tuple(word))]
    while stack:
        coeff, scalars, current = stack.pop()
        index = _first_inversion(current)
        if index is None:
            _accumulate(results, (scalars, current), coeff)
            continue
        head, left, right, tail = (
            current[:index],
            current[index],
            current[index + 1],
            current[index + 2 :],
        )
        swapped = head + (right, left) + tail
        if left[0] == "p" and right[0] == "f":
            stack.append((coeff, scalars, swapped))
            axis = left[1]
            if mode == ELECTROSTATIC:
                multi = list(right[1])
                multi[axis] += 1
                derived = ("f", tuple(multi))
                stack.append(
                    (
                        coeff * QQi.of(0, -1),
                        _scalar_merge(scalars, _scalar_of(hbar=1)),
                        head + (derived,) + tail,
                    )
                )
            else:
                # d/dx_i of the potential is minus the (central) field
                # component, so the -i hbar swap remainder flips sign.
                component = _scalar_of(hbar=1, **{f"E_{_AXES[axis]}": 1})
                stack.append(
                    (
                        coeff * QQi.of(0, 1),
                        _scalar_merge(scalars, component),
                        head + tail,
                    )
                )
        elif left[0] == "p" and right[0] == "p":
            stack.append((coeff, scalars, swapped))
            if mode == UNIFORM:
                third = 3 - left[1] - right[1]
                sign = _EPSILON[(left[1], right[1], third)]
                component = _scalar_of(e=1, hbar=1, **{f"B_{_AXES[third]}": 1})
                stack.append(
                    (
                        coeff * QQi.of(0, sign),
                        _scalar_merge(scalars, component),
                        head + tail,
                    )
                )
        else:  # two field factors: they commute
            stack.append((coeff, scalars, swapped))
    return [(coeff, scalars, word) for (scalars, word), coeff in results.items()]


def _first_inversion(word: Word) -> int | None:
    for index in range(len(word) - 1):
        if _factor_rank(word[index]) > _factor_rank(word[index + 1]):
            return index
    return None


# -- public constructors -----------------------------------------------------------


def matrix_factor(mode: str, label: str) -> ConcreteExpr:
    return ConcreteExpr.term(mode, matrix=label)


def momentum(mode: str, axis: int) -> ConcreteExpr:
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1, or 2")
    return ConcreteExpr.term(mode, word=(("p", axis),))


def field_factor(mode: str, multi_index: tuple[int, int, int] = (0, 0, 0)) -> ConcreteExpr:
    if len(multi_index) != 3 or any(n < 0 for n in multi_index):
        raise ValueError("multi_index must be three nonnegative integers")
    if mode == UNIFORM and any(multi_index):
        raise ValueError(
            "uniform mode keeps only the bare potential as a field factor; "
            "its derivatives are central field components"
        )
    return ConcreteExpr.term(mode, word=(("f", tuple(multi_index)),))


# -- rendering ---------------------------------------------------------------------


def _render_scalars(scalars: ScalarKey) -> str:
    parts = []
    for name, exp in scalars:
        shown = "mu'" if name == "mu_prime" else name
        parts.append(shown if exp == 1 else f"{shown}^{exp}")
    return " ".join(parts)


def _render_factor(factor: Factor) -> str:
    kind, payload = factor
    if kind == "p":
        return f"p_{_AXES[payload]}"
    if not any(payload):
        return "Phi"
    suffix = "".join(_AXES[axis] * count for axis, count in enumerate(payload))
    return f"Phi_{suffix}"


def render_term(key: TermKey, coeff: QQi) -> str:
    matrix, _, scalars, word = key
    parts = [str(coeff)]
    rendered_scalars = _render_scalars(scalars)
    if rendered_scalars:
        parts.append(rendered_scalars)
    if matrix != "1":
        parts.append(matrix)
    parts.extend(_render_factor(factor) for factor in word)
    return " ".join(parts)


def term_strings(expr: ConcreteExpr) -> list[str]:
    return [render_term(key, coeff) for key, coeff in expr.terms()]


# -- representation identity checks ---------------------------------------------------


def _identity_cases() -> list[tuple[str, Callable[[], bool]]]:
    # Products of monomials are monomials, so each identity is exact
    # equality of monomials: xy - yx = 2t holds exactly when xy = t and
    # yx = -t, and xy - yx = 0 exactly when xy = yx.
    basis = _MONOMIALS
    identity = basis["1"]
    beta = basis["beta"]
    gamma5 = basis["gamma5"]
    sigma = [basis[f"Sigma_{axis}"] for axis in _AXES]
    alpha = [basis[f"alpha_{axis}"] for axis in _AXES]
    gamma = [basis[f"gamma_{axis}"] for axis in _AXES]
    pi_mat = [basis[f"Pi_{axis}"] for axis in _AXES]

    def pair_product_reduces(mats) -> bool:
        # m_i m_j = delta_ij + i epsilon_ijk Sigma_k, one monomial per (i, j)
        expected = {(i, i): identity for i in range(3)}
        for (i, j, k), sign in _EPSILON.items():
            expected[i, j] = _m_phase(sigma[k], sign)
        return all(_m_mul(mats[i], mats[j]) == expected[i, j] for i, j in expected)

    def anticommutes(x, y) -> bool:
        return _m_mul(x, y) == _m_phase(_m_mul(y, x), 2)

    def spin_channel(mats, target) -> bool:
        # [m_i, Pi_j] == 2 delta_ij target: xy = target and yx = -target
        # on the diagonal, yx = xy off it
        for i in range(3):
            for j in range(3):
                xy, yx = _m_mul(mats[i], pi_mat[j]), _m_mul(pi_mat[j], mats[i])
                if (xy, yx) != ((target, _m_phase(target, 2)) if i == j else (xy, xy)):
                    return False
        return True

    def basis_orthonormal() -> bool:
        for a in basis:
            for b in basis:
                if _m_trace(basis[a], basis[b]) != ((4, 0) if a == b else (0, 0)):
                    return False
        return True

    def decomposition_involutive() -> bool:
        # sum_b tr(b^dagger M) b == 4 M, on M scaled by its common denominator
        import random

        rng = random.Random(20240817)
        for _ in range(25):
            cells = [
                (
                    Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                    Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                )
                for _ in range(16)
            ]
            scale = lcm(*(part.denominator for cell in cells for part in cell))
            flat = [(int(re * scale), int(im * scale)) for re, im in cells]
            total = [(0, 0)] * 16
            for columns, powers in basis.values():
                # row r of b holds i**p at flat index 4 r + c
                cells_of_b = [(4 * r + c, p) for r, (c, p) in enumerate(zip(columns, powers))]
                coeff = _gauss_sum(_rotate(flat[cell], -p) for cell, p in cells_of_b)
                for cell, p in cells_of_b:
                    total[cell] = _gauss_sum((total[cell], _rotate(coeff, p)))
            if total != [(4 * re, 4 * im) for re, im in flat]:
                return False
        return True

    return [
        ("beta_squares_to_one", lambda: _m_mul(beta, beta) == identity),
        (
            "beta_anticommutes_with_alpha",
            lambda: all(anticommutes(beta, alpha[i]) for i in range(3)),
        ),
        ("alpha_products_reduce_to_sigma", lambda: pair_product_reduces(alpha)),
        ("sigma_products_reduce_to_sigma", lambda: pair_product_reduces(sigma)),
        ("gamma5_squares_to_one", lambda: _m_mul(gamma5, gamma5) == identity),
        ("gamma5_anticommutes_with_beta", lambda: anticommutes(gamma5, beta)),
        (
            "gamma5_commutes_with_sigma",
            lambda: all(_m_mul(gamma5, s) == _m_mul(s, gamma5) for s in sigma),
        ),
        (
            "gamma5_times_sigma_is_minus_alpha",
            lambda: all(
                _m_mul(gamma5, sigma[i]) == _m_phase(alpha[i], 2) for i in range(3)
            ),
        ),
        (
            "gamma_is_beta_alpha",
            lambda: all(gamma[i] == _m_mul(beta, alpha[i]) for i in range(3)),
        ),
        ("spin_channel_of_alpha_commutator", lambda: spin_channel(alpha, basis["beta_gamma5"])),
        ("spin_channel_of_gamma_commutator", lambda: spin_channel(gamma, gamma5)),
        ("basis_orthonormal_under_trace", basis_orthonormal),
        ("decomposition_involutive_on_random_matrices", decomposition_involutive),
    ]


def matrix_identity_report() -> list[dict]:
    """Verify the fixed representation on its monomials, exactly."""
    return [
        {"identity": name, "status": "pass" if check() else "fail"}
        for name, check in _identity_cases()
    ]


def _require_matrices() -> None:
    failed = [row["identity"] for row in matrix_identity_report() if row["status"] != "pass"]
    if failed:
        raise MatrixIdentityError(
            "representation identities failed: " + ", ".join(failed)
        )


# -- the electrostatic derivation ------------------------------------------------------


def _alpha_dot_p(mode: str) -> ConcreteExpr:
    total = ConcreteExpr.zero(mode)
    for axis in range(3):
        total = total.add(
            matrix_factor(mode, f"alpha_{_AXES[axis]}").mul(momentum(mode, axis))
        )
    return total


def _unit_multi(axis: int) -> tuple[int, int, int]:
    multi = [0, 0, 0]
    multi[axis] = 1
    return tuple(multi)


def _field_derivative(axis: int) -> ConcreteExpr:
    return field_factor(ELECTROSTATIC, _unit_multi(axis))


def _spin_cross_terms(field_first: bool) -> ConcreteExpr:
    """Sigma . (p x E) when field_first is False, Sigma . (E x p) when True,
    written with the raw operator ordering of the displayed form and the
    field expressed through the potential (E_i = -d_i Phi)."""
    total = ConcreteExpr.zero(ELECTROSTATIC)
    for (i, j, k), sign in _EPSILON.items():
        sigma = matrix_factor(ELECTROSTATIC, f"Sigma_{_AXES[k]}")
        if field_first:
            factors = _field_derivative(i).mul(momentum(ELECTROSTATIC, j))
        else:
            factors = momentum(ELECTROSTATIC, i).mul(_field_derivative(j))
        total = total.add(sigma.mul(factors).scale(Fraction(-sign)))
    return total


def _laplacian() -> ConcreteExpr:
    total = ConcreteExpr.zero(ELECTROSTATIC)
    for axis in range(3):
        multi = [0, 0, 0]
        multi[axis] = 2
        total = total.add(field_factor(ELECTROSTATIC, tuple(multi)))
    return total


def _field_squared() -> ConcreteExpr:
    total = ConcreteExpr.zero(ELECTROSTATIC)
    for axis in range(3):
        component = _field_derivative(axis)
        total = total.add(component.mul(component))
    return total


def _power_transfer() -> ConcreteExpr:
    """p . E + E . p written through the potential: -(p_i Phi_i + Phi_i p_i)."""
    total = ConcreteExpr.zero(ELECTROSTATIC)
    for axis in range(3):
        p = momentum(ELECTROSTATIC, axis)
        phi = _field_derivative(axis)
        total = total.add(p.mul(phi)).add(phi.mul(p))
    return total.scale(Fraction(-1))


def _directional_curvature() -> ConcreteExpr:
    """The canonical normal-ordered reading of (p . grad)(p . grad) Phi:
    second-derivative functions on the left, two momenta on the right."""
    total = ConcreteExpr.zero(ELECTROSTATIC)
    for i in range(3):
        for j in range(3):
            multi = [0, 0, 0]
            multi[i] += 1
            multi[j] += 1
            total = total.add(
                field_factor(ELECTROSTATIC, tuple(multi))
                .mul(momentum(ELECTROSTATIC, min(i, j)))
                .mul(momentum(ELECTROSTATIC, max(i, j)))
            )
    return total


def _encoded_interiors() -> dict[str, ConcreteExpr]:
    spin_orbit = _spin_cross_terms(field_first=False).sub(
        _spin_cross_terms(field_first=True)
    )
    return {
        # -e hbar (Sigma.(p x E) - Sigma.(E x p) + hbar * div grad Phi)
        "inv_eps_epsm": spin_orbit.add(
            _laplacian().scalar_mul(hbar=1)
        ).scalar_mul(e=1, hbar=1).scale(Fraction(-1)),
        # -4 e hbar^2 (p . grad)(p . grad) Phi
        "quartic_kernel": _directional_curvature()
        .scalar_mul(e=1, hbar=2)
        .scale(Fraction(-4)),
        # -e^2 hbar^2 E^2
        "inv_eps3": _field_squared().scalar_mul(e=2, hbar=2).scale(Fraction(-1)),
        # -e^2 hbar^2 (p . E + E . p)^2
        "inv_eps5": _power_transfer()
        .mul(_power_transfer())
        .scalar_mul(e=2, hbar=2)
        .scale(Fraction(-1)),
    }


def _term_dicts(expr: ConcreteExpr) -> list[dict]:
    return [
        {
            "matrix": key[0],
            "coeff": str(coeff),
            "scalars": _render_scalars(key[2]),
            "word": " ".join(_render_factor(f) for f in key[3]) or "1",
        }
        for key, coeff in expr.terms()
    ]


#: The electrostatic blocks are compared through this power of hbar.
HBAR_MAX = 2


def derive_electrostatic() -> dict:
    """Re-derive the electrostatic Hamiltonian from the bracket interiors.

    The odd input is alpha . p and the even input is e Phi.  Each of the
    four interiors of the order-2 closed form (``stepwise.ORDER2_BLOCKS``)
    is evaluated from its text in the concrete algebra, normal ordered at
    every bracket and power, and compared against the displayed form
    encoded under the same prefactor label, exactly, for all terms with
    hbar power <= ``HBAR_MAX``.  Any deeper remainder is pure
    operator-ordering content of the displayed directional-curvature
    term; it is reported, never compared.
    """
    _require_matrices()
    mode = ELECTROSTATIC
    letters = {"O": _alpha_dot_p(mode), "E": field_factor(mode).scalar_mul(e=1)}
    encoded = _encoded_interiors()

    blocks = []
    status = "pass"
    for prefactor, weight, beta_power, interior in ORDER2_BLOCKS:
        derived = evaluate(parse_expr(interior), letters, ConcreteExpr.normal_order)
        target = encoded[prefactor].normal_order()
        delta = derived.sub(target)
        compared, deeper = delta.split_hbar(HBAR_MAX)
        block_status = "match" if compared.is_zero() else "mismatch"
        if block_status != "match":
            status = "fail"
        blocks.append(
            {
                "prefactor": prefactor,
                "weight": str(weight),
                "beta": beta_power,
                "source": interior,
                "status": block_status,
                "terms": _term_dicts(derived.split_hbar(HBAR_MAX)[0]),
                "residual": term_strings(compared),
                "higher_order": term_strings(deeper),
            }
        )
    return {
        "mode": mode,
        "hbar_max": HBAR_MAX,
        "constant_potential": False,
        "inputs": {"O": "alpha . p", "E": "e Phi"},
        "leading": ["beta f(eps)", "e Phi"],
        "status": status,
        "blocks": blocks,
    }


# -- the uniform-field commutator -------------------------------------------------------


def _uniform_even() -> ConcreteExpr:
    mode = UNIFORM
    even = field_factor(mode).scalar_mul(e=1)
    for axis in _AXES:
        even = even.sub(
            matrix_factor(mode, f"Pi_{axis}").scalar_mul(mu_prime=1, **{f"B_{axis}": 1})
        )
    return even


def _uniform_odd() -> ConcreteExpr:
    mode = UNIFORM
    odd = _alpha_dot_p(mode)
    for axis in _AXES:
        odd = odd.add(
            matrix_factor(mode, f"gamma_{axis}")
            .scalar_mul(mu_prime=1, **{f"E_{axis}": 1})
            .scale(_I)
        )
    return odd


def _uniform_target() -> ConcreteExpr:
    mode = UNIFORM
    total = ConcreteExpr.zero(mode)
    for axis in _AXES:
        total = total.add(
            matrix_factor(mode, f"alpha_{axis}")
            .scalar_mul(e=1, hbar=1, **{f"E_{axis}": 1})
            .scale(_I)
        )
    for index, axis in enumerate(_AXES):
        total = total.sub(
            matrix_factor(mode, "beta_gamma5")
            .mul(momentum(mode, index))
            .scalar_mul(mu_prime=1, **{f"B_{axis}": 1})
            .scale(Fraction(2))
        )
    for axis in _AXES:
        total = total.sub(
            matrix_factor(mode, "gamma5")
            .scalar_mul(mu_prime=2, **{f"E_{axis}": 1, f"B_{axis}": 1})
            .scale(QQi.of(0, 2))
        )
    return total


def verify_uniform_commutator() -> dict:
    """Check the uniform-field commutator of the odd and even inputs.

    For a spin-1/2 particle with charge e and anomalous moment mu' in
    constant electric and magnetic fields, the commutator must close on
    exactly three matrix channels: i e hbar alpha.E from the momentum
    acting on the potential, -2 beta gamma5 mu' pi.B from the matrix
    noncommutativity (itself proportional to hbar through mu'), and
    -2 i gamma5 mu'^2 E.B.
    """
    _require_matrices()
    bracket = _uniform_odd().commutator(_uniform_even()).normal_order()
    target = _uniform_target()
    delta = bracket.sub(target)
    return {
        "mode": UNIFORM,
        "anomalous": True,
        "electric": True,
        "status": "match" if delta.is_zero() else "mismatch",
        "commutator": term_strings(bracket),
        "expected": term_strings(target),
        "residual": term_strings(delta),
    }
