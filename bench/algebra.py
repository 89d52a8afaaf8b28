"""Numerical stand-ins for the symbolic objects that fwforge reports.

The output checks evaluate what a report claims on explicit finite
matrices: E and O become random Hermitian matrices, even and odd with
respect to beta = diag(1, -1), and m a number.  Nothing here imports
fwforge, so a fault in its algebra cannot hide in the check.

* `evaluate` reads the fwforge mini-language (comm, acomm, pow, products,
  rationals, m^k, beta, E, O) and returns its matrix value;
* `eriksen_fw` is the exact one-step transform U H U^+ by dense matrix
  functions;
* `iterative_fw` and `eriksen_closed_form` are the two closed forms the
  paper displays, with eps = sqrt(m^2 + O^2) taken exactly;
* `class_parts` extracts the part of a matrix function of (a E, b O) that
  is homogeneous of degree e in a and o in b, by a discrete Fourier
  transform over circles in the complex a and b planes; `weight_series`
  does the same along E = s^2 E0, O = s O0 for the powers of s.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Operators:
    """beta, E, O as (2n x 2n) matrices and the mass m."""

    beta: np.ndarray
    E: np.ndarray
    O: np.ndarray
    m: float

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.beta.shape[-1])

    def scaled(self, a, b) -> "Operators":
        """E -> a E and O -> b O; a and b may be complex."""
        return Operators(self.beta, a * self.E, b * self.O, self.m)


def random_operators(rng: np.random.Generator, n: int, m: float) -> Operators:
    """Even E and odd O of spectral norm 1 on C^n + C^n."""

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    def hermitian(k):
        a = gaussian(k, k)
        return (a + a.conj().T) / 2

    size = 2 * n
    beta = np.diag([1.0] * n + [-1.0] * n).astype(complex)
    even = np.zeros((size, size), dtype=complex)
    even[:n, :n] = hermitian(n)
    even[n:, n:] = hermitian(n)
    odd = np.zeros((size, size), dtype=complex)
    block = gaussian(n, n)
    odd[:n, n:] = block
    odd[n:, :n] = block.conj().T
    even /= np.linalg.norm(even, 2)
    odd /= np.linalg.norm(odd, 2)
    return Operators(beta, even, odd, m)


# -- the mini-language ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*,^]))")
_WORD_TERM_RE = re.compile(r"^(-?)(\d+(?:/\d+)?)(?: m\^(-?\d+))?( beta)?((?: [EO])*)$")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ValueError(f"cannot read {text[pos:]!r}")
        out.append(next(group for group in match.groups() if group is not None))
        pos = match.end()
    return out


class _Evaluator:
    """Recursive descent over the fwforge mini-language grammar.

    A product may be written with '*' or by juxtaposition, as the
    canonical serializer writes "1/16 m^-3 beta O E O".
    """

    def __init__(self, text: str, ops: Operators):
        self.tokens = _tokens(text)
        self.pos = 0
        self.ops = ops

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        token = self.peek()
        if token is None or (expected is not None and token != expected):
            raise ValueError(f"expected {expected!r}, got {token!r} in {' '.join(self.tokens)}")
        self.pos += 1
        return token

    def run(self):
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input {self.tokens[self.pos:]}")
        return self.matrix(value)

    def matrix(self, value):
        return value * self.ops.identity if np.ndim(value) == 0 else value

    def expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        total = sign * self.matrix(self.term())
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            total = total + sign * self.matrix(self.term())
        return total

    def term(self):
        value = self.factor()
        while True:
            token = self.peek()
            if token == "*":
                self.take()
            elif token is None or token in ("+", "-", ")", ","):
                return value
            value = _mul(value, self.factor())

    def factor(self):
        token = self.take()
        if token[0].isdigit():
            return float(Fraction(token))
        if token == "(":
            value = self.expr()
            self.take(")")
            return value
        if token == "m":
            self.take("^")
            sign = -1 if self.peek() == "-" and self.take() else 1
            return self.ops.m ** (sign * int(self.take()))
        if token == "beta":
            return self.ops.beta
        if token == "E":
            return self.ops.E
        if token == "O":
            return self.ops.O
        if token in ("comm", "acomm", "pow"):
            self.take("(")
            left = self.expr()
            self.take(",")
            if token == "pow":
                power = int(self.take())
                self.take(")")
                return np.linalg.matrix_power(self.matrix(left), power)
            right = self.expr()
            self.take(")")
            sign = -1 if token == "comm" else 1
            return _mul(left, right) + sign * _mul(right, left)
        raise ValueError(f"unknown token {token!r}")


def _mul(x, y):
    if np.ndim(x) == 0 or np.ndim(y) == 0:
        return x * y
    return x @ y


def evaluate(text: str, ops: Operators) -> np.ndarray:
    """Matrix value of one mini-language expression."""
    return _Evaluator(text, ops).run()


class WordSum:
    """Sums canonical word terms ("-9/256 m^-5 beta E O O E O O") fast.

    Derivation reports list thousands of such terms; word products share
    prefixes, so each prefix is multiplied out once per operator set.
    """

    def __init__(self, ops: Operators):
        self.ops = ops
        self._prefix = {"": ops.identity}

    def word(self, letters: str) -> np.ndarray:
        cached = self._prefix.get(letters)
        if cached is None:
            last = self.ops.E if letters[-1] == "E" else self.ops.O
            cached = self.word(letters[:-1]) @ last
            self._prefix[letters] = cached
        return cached

    def term(self, text: str) -> np.ndarray:
        match = _WORD_TERM_RE.match(text.strip())
        if not match:
            return evaluate(text, self.ops)
        sign, coeff, m_exp, beta, letters = match.groups()
        scalar = float(Fraction(coeff)) * (-1 if sign else 1) * self.ops.m ** int(m_exp or 0)
        value = scalar * self.word(letters.replace(" ", ""))
        return self.ops.beta @ value if beta else value

    def total(self, terms) -> np.ndarray:
        out = np.zeros_like(self.ops.identity, dtype=complex)
        for text in terms:
            out = out + self.term(text)
        return out


# -- dense matrix functions -------------------------------------------------------------


def matrix_function(matrix: np.ndarray, fn) -> np.ndarray:
    """fn applied through an eigendecomposition.

    The principal branch of fn is meant; callers keep the spectrum away
    from its cut.
    """
    values, vectors = np.linalg.eig(matrix)
    return (vectors * fn(values)[..., None, :]) @ np.linalg.inv(vectors)


def _inv_sqrt(values):
    return values ** -0.5


def eriksen_fw(ops: Operators) -> np.ndarray:
    """U H U^+ with lambda = H/sqrt(H^2), U = (1 + beta lambda)/sqrt(2 + beta lambda + lambda beta).

    U^+ is written as (2 + ...)^(-1/2) (1 + lambda beta), the formal
    adjoint with E and O self-adjoint, so the result is analytic in
    complex scalings of E and O.
    """
    identity = ops.identity
    hamiltonian = ops.m * ops.beta + ops.E + ops.O
    lam = hamiltonian @ matrix_function(hamiltonian @ hamiltonian, _inv_sqrt)
    beta_lam = ops.beta @ lam
    lam_beta = lam @ ops.beta
    root = matrix_function(2 * identity + beta_lam + lam_beta, _inv_sqrt)
    return (identity + beta_lam) @ root @ hamiltonian @ root @ (identity + lam_beta)


def _central(ops: Operators, fn) -> np.ndarray:
    """fn(eps) for eps = sqrt(m^2 + O^2), as a matrix."""
    radicand = ops.m**2 * ops.identity + ops.O @ ops.O
    return matrix_function(radicand, lambda v: fn(np.sqrt(v + 0j)))


def _acomm(x, y):
    return x @ y + y @ x


def iterative_fw(ops: Operators) -> np.ndarray:
    """The two-step closed form through nominal order 2, static field:

    beta eps + E - (1/8){1/(eps(eps+m)), [O,[O,E]]}
      + (1/64){(2eps^2 + 2eps m + m^2)/(eps^4 (eps+m)^2), [O^2,[O^2,E]]}
      - (1/16) beta {1/eps^3, ([O,E])^2} + (1/64) beta {1/eps^5, ([O^2,E])^2}
    """
    m = ops.m
    fn = {
        "eps": lambda x: x,
        "inv_eps_epsm": lambda x: 1 / (x * (x + m)),
        "quartic_kernel": lambda x: (2 * x**2 + 2 * x * m + m**2) / (x**4 * (x + m) ** 2),
        "inv_eps3": lambda x: x**-3,
        "inv_eps5": lambda x: x**-5,
    }
    f = {name: _central(ops, body) for name, body in fn.items()}
    return (
        ops.beta @ f["eps"]
        + ops.E
        - _acomm(f["inv_eps_epsm"], evaluate("comm(O, comm(O, E))", ops)) / 8
        + _acomm(f["quartic_kernel"], evaluate("comm(pow(O, 2), comm(pow(O, 2), E))", ops)) / 64
        - ops.beta @ _acomm(f["inv_eps3"], evaluate("pow(comm(O, E), 2)", ops)) / 16
        + ops.beta @ _acomm(f["inv_eps5"], evaluate("pow(comm(pow(O, 2), E), 2)", ops)) / 64
    )


# The direct method's closed form, every bracket through nominal order 3;
# beta eps is added separately with eps taken exactly.
ERIKSEN_BRACKETS = (
    "E"
    " - 1/128 m^-6 * acomm(8 m^4 - 6 m^2 pow(O, 2) + 5 pow(O, 4), comm(O, comm(O, E)))"
    " + 1/512 m^-6 * acomm(2 m^2 - pow(O, 2), comm(pow(O, 2), comm(pow(O, 2), E)))"
    " + 1/16 m^-3 beta * acomm(O, comm(comm(O, E), E))"
    " - 1/32 m^-4 * comm(O, comm(comm(comm(O, E), E), E))"
    " + 11/1024 m^-6 * comm(pow(O, 2), comm(pow(O, 2), comm(O, comm(O, E))))"
    " + 1/256 m^-5 beta * ("
    "24 acomm(pow(O, 2), pow(comm(O, E), 2))"
    " - 11 pow(comm(pow(O, 2), E), 2)"
    " - 14 acomm(pow(O, 2), comm(comm(pow(O, 2), E), E))"
    " - 4 comm(O, comm(O, comm(comm(pow(O, 2), E), E)))"
    " + 9/2 comm(comm(O, comm(O, comm(pow(O, 2), E))), E)"
    " + 5/2 comm(pow(O, 2), comm(O, comm(comm(O, E), E))))"
)


def eriksen_closed_form(ops: Operators) -> np.ndarray:
    return ops.beta @ _central(ops, lambda x: x) + evaluate(ERIKSEN_BRACKETS, ops)


def class_parts(fn, ops: Operators, points: int = 16, radius: tuple = (0.2, 0.2)) -> np.ndarray:
    """parts[e, o] = the part of fn(ops.scaled(a, b)) of degree e in a, o in b.

    fn is sampled on `points` x `points` roots of unity scaled by the two
    radii; a part of degree e + points or beyond aliases onto e, which the
    radii keep below the rounding error for an fn analytic in a disc of a
    few times that radius.
    """
    roots = np.exp(2j * np.pi * np.arange(points) / points)
    ra, rb = radius
    samples = np.array(
        [[fn(ops.scaled(ra * za, rb * zb)) for zb in roots] for za in roots]
    )
    spectrum = np.fft.fft2(samples, axes=(0, 1)) / points**2
    degrees = np.arange(points)
    return spectrum / (ra ** degrees[:, None, None, None] * rb ** degrees[None, :, None, None])


def weight_series(fn, ops: Operators, points: int = 48, radius: float = 0.4) -> np.ndarray:
    """series[w] = radius^w times the s^w coefficient of fn at E -> s^2 E, O -> s O.

    A word with e letters E and o letters O then sits at w = 2e + o.  The
    factor radius^w makes the entries comparable with fn's size on the circle.
    """
    roots = radius * np.exp(2j * np.pi * np.arange(points) / points)
    samples = np.array([fn(ops.scaled(z * z, z)) for z in roots])
    return np.fft.fft(samples, axis=0) / points
