"""Truncated commutative series for central functions of eps = sqrt(m^2 + O^2).

A CentralSeries stores f(eps, m) = m^offset * sum_k c_k x^k with
x = O^2/m^2, all c_k exact rationals, truncated above x^order.  Since
[eps, O] = 0, these objects commute with everything they multiply into;
converting to the free algebra just spells x^k as the word "OO...O".

The registry maps mini-language names (epsfun(NAME)) to the coefficient
functions of eps and m used by the closed-form transformed Hamiltonians;
each is built compositionally from eps = m*(1+x)^{1/2}, so every
coefficient is exact at any truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from fwforge.ncalg import AbstractExpr, check_term_cap


class SingularSeriesError(ZeroDivisionError):
    """Inversion of a series whose constant term vanishes."""


def binomial_coefficient(q: Fraction, k: int) -> Fraction:
    """Generalized C(q, k) for rational q, exact."""
    out = Fraction(1)
    for j in range(k):
        out *= (q - j)
        out /= j + 1
    return out


@dataclass(frozen=True)
class CentralSeries:
    """m^offset * sum c_k x^k with x = O^2/m^2, truncated above x^order."""

    coefficients: dict
    order: int
    offset: int

    def __post_init__(self):
        clean = {
            k: Fraction(c)
            for k, c in self.coefficients.items()
            if c and 0 <= k <= self.order
        }
        object.__setattr__(self, "coefficients", clean)

    # -- construction ----------------------------------------------------

    @staticmethod
    def constant(value, order: int, offset: int = 0) -> "CentralSeries":
        return CentralSeries({0: Fraction(value)}, order, offset)

    @staticmethod
    def binomial(q: Fraction, order: int, offset: int = 0) -> "CentralSeries":
        """(1 + x)^q through x^order, times m^offset."""
        coeffs = {k: binomial_coefficient(Fraction(q), k) for k in range(order + 1)}
        return CentralSeries(coeffs, order, offset)

    # -- ring operations ---------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        return self.coefficients.get(k, Fraction(0))

    def scale(self, factor) -> "CentralSeries":
        factor = Fraction(factor)
        return CentralSeries(
            {k: c * factor for k, c in self.coefficients.items()},
            self.order,
            self.offset,
        )

    def neg(self) -> "CentralSeries":
        return self.scale(-1)

    def shift_m(self, delta: int) -> "CentralSeries":
        return CentralSeries(self.coefficients, self.order, self.offset + delta)

    def add(self, other: "CentralSeries") -> "CentralSeries":
        # x carries m^-2, so series with different offsets have no common
        # monomial basis and their sum is not a CentralSeries.
        if self.offset != other.offset:
            raise ValueError(
                f"offset mismatch in series addition: {self.offset} vs {other.offset}"
            )
        order = min(self.order, other.order)
        coeffs = {k: c for k, c in self.coefficients.items() if k <= order}
        for k, c in other.coefficients.items():
            if k <= order:
                coeffs[k] = coeffs.get(k, Fraction(0)) + c
        return CentralSeries(coeffs, order, self.offset)

    def sub(self, other: "CentralSeries") -> "CentralSeries":
        return self.add(other.neg())

    def mul(self, other: "CentralSeries") -> "CentralSeries":
        order = min(self.order, other.order)
        coeffs: dict[int, Fraction] = {}
        for k1, c1 in self.coefficients.items():
            for k2, c2 in other.coefficients.items():
                k = k1 + k2
                if k <= order:
                    coeffs[k] = coeffs.get(k, Fraction(0)) + c1 * c2
        return CentralSeries(coeffs, order, self.offset + other.offset)

    def invert(self) -> "CentralSeries":
        c0 = self.coefficient(0)
        if not c0:
            raise SingularSeriesError(
                "cannot invert a series with vanishing constant term"
            )
        inv: dict[int, Fraction] = {0: 1 / c0}
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += self.coefficient(j) * inv.get(k - j, Fraction(0))
            inv[k] = -acc / c0
        return CentralSeries(inv, self.order, -self.offset)

    def sqrt(self) -> "CentralSeries":
        """Square root with exact rational coefficients.

        Requires an even m-offset and a constant term that is a square of
        a rational; both hold for every registry function.
        """
        if self.offset % 2:
            raise ValueError("square root needs an even m-offset")
        c0 = self.coefficient(0)
        if c0 <= 0:
            raise ValueError("square root needs a positive constant term")
        root_num, root_den = isqrt(c0.numerator), isqrt(c0.denominator)
        if root_num * root_num != c0.numerator or root_den * root_den != c0.denominator:
            raise ValueError(f"constant term {c0} is not a rational square")
        root0 = Fraction(root_num, root_den)
        # (c0(1+u))^{1/2} = sqrt(c0) * sum C(1/2,j) u^j with u = tail/c0.
        tail = CentralSeries(
            {k: c / c0 for k, c in self.coefficients.items() if k >= 1},
            self.order,
            0,
        )
        acc = CentralSeries.constant(root0, self.order)
        power = CentralSeries.constant(1, self.order)
        for j in range(1, self.order + 1):
            power = power.mul(tail)
            if not power.coefficients:
                break
            acc = acc.add(power.scale(root0 * binomial_coefficient(Fraction(1, 2), j)))
        return CentralSeries(acc.coefficients, self.order, self.offset // 2)

    def pow(self, n: int) -> "CentralSeries":
        if n < 0:
            return self.invert().pow(-n)
        acc = CentralSeries.constant(1, self.order)
        for _ in range(n):
            acc = acc.mul(self)
        return acc

    # -- export -----------------------------------------------------------

    def to_terms(self) -> list[tuple[int, Fraction]]:
        """Sorted (x-power, coefficient) pairs."""
        return sorted(self.coefficients.items())


def to_abstract(series: CentralSeries) -> AbstractExpr:
    """Spell m^offset * sum c_k x^k as words: x^k -> O^{2k} m^{-2k}."""
    return AbstractExpr(
        {
            (0, "O" * (2 * k), series.offset - 2 * k): c
            for k, c in series.coefficients.items()
        }
    )


# -- the named coefficient functions ----------------------------------------


def _eps(order: int) -> CentralSeries:
    return CentralSeries.binomial(Fraction(1, 2), order, offset=1)


def _eps_plus_m(order: int) -> CentralSeries:
    return _eps(order).add(CentralSeries.constant(1, order, offset=1))


def _registry_builders():
    def eps(order):
        return _eps(order)

    def inv_eps(order):
        return _eps(order).invert()

    def inv_eps_epsm(order):
        return _eps(order).mul(_eps_plus_m(order)).invert()

    def quartic_kernel(order):
        eps2 = _eps(order).pow(2)
        numerator = (
            eps2.scale(2)
            .add(_eps(order).shift_m(1).scale(2))
            .add(CentralSeries.constant(1, order, offset=2))
        )
        denominator = eps2.pow(2).mul(_eps_plus_m(order).pow(2))
        return numerator.mul(denominator.invert())

    def inv_eps3(order):
        return _eps(order).pow(-3)

    def inv_eps5(order):
        return _eps(order).pow(-5)

    def inv_sqrt2(order):
        return _eps(order).mul(_eps_plus_m(order)).scale(2).sqrt().invert()

    def fact_plus(order):
        return _eps_plus_m(order).mul(inv_sqrt2(order))

    return {
        "eps": eps,
        "inv_eps": inv_eps,
        "inv_eps_epsm": inv_eps_epsm,
        "quartic_kernel": quartic_kernel,
        "inv_eps3": inv_eps3,
        "inv_eps5": inv_eps5,
        "inv_sqrt2": inv_sqrt2,
        "fact_plus": fact_plus,
    }


REGISTRY = _registry_builders()


def central_expand(name: str, order: int) -> CentralSeries:
    """Exact truncated series of a registry function through x^order."""
    try:
        builder = REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown epsilon-function name {name!r}") from None
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    return builder(order)


# -- noncommutative binomial series ------------------------------------------


def nc_binomial_power(
    x_expr: AbstractExpr, q, budget, path: str = "nc_binomial_power"
) -> AbstractExpr:
    """(1 + X)^q = sum_k C(q,k) X^k truncated by the budget.

    X must have no constant part (every word nonempty), so X^k words only
    grow and the sum terminates once X^k is empty under the budget.  Each
    power X^k and each partial sum is held to budget.term_cap; an overflow
    names `path`, with ".power[k]" for a power.
    """
    if budget is None:
        raise ValueError("nc_binomial_power requires a truncation budget")
    q = Fraction(q)
    for (beta_exp, word, m_exp), _ in x_expr.terms():
        if not word:
            raise ValueError(
                f"binomial base has a constant term (beta^{beta_exp} m^{m_exp})"
            )
    acc = AbstractExpr.rational(1)
    power = AbstractExpr.rational(1)
    k = 0
    while True:
        k += 1
        power = check_term_cap(power.mul(x_expr, budget), budget, f"{path}.power[{k}]")
        if power.is_zero():
            break
        acc = check_term_cap(acc.add(power.scale(binomial_coefficient(q, k))), budget, path)
    return acc
