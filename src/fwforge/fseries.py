"""Central functions of eps = sqrt(m^2 + O^2) as words of the free algebra.

With x = O^2/m^2, the word "OO" times m^-2, every registry function is
m^offset * sum_k c_k x^k with exact rational c_k: an AbstractExpr whose
words are runs of O.  Such series commute with O and with one another,
and a truncated product of them is exact below the budget's word-length
cut, because words only grow.

All powers go through one binomial: eps^q = m^q (1 + x)^{q/2}, and any
other power of a series c m^k (1 + X) is c^q m^{qk} (1 + X)^q.  The
registry maps mini-language names (epsfun(NAME)) to the coefficient
functions of eps and m used by the closed-form transformed Hamiltonians.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from fwforge.ncalg import AbstractExpr, check_term_cap


class SingularSeriesError(ZeroDivisionError):
    """Power of a series without a constant term."""


def binomial_coefficient(q: Fraction, k: int) -> Fraction:
    """Generalized C(q, k) for rational q, exact."""
    out = Fraction(1)
    for j in range(k):
        out *= (q - j)
        out /= j + 1
    return out


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
    constants = x_expr.constants()
    if constants:
        (beta_exp, _, m_exp), _ = constants[0]
        raise ValueError(f"binomial base has a constant term (beta^{beta_exp} m^{m_exp})")
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


def central_power(series: AbstractExpr, q, budget) -> AbstractExpr:
    """series^q for an integer or half-integer q, truncated by the budget.

    The series must have exactly one term without letters, c m^k, so that
    it reads c m^k (1 + X); the result is c^q m^{qk} (1 + X)^q.  A
    fractional q needs c to be the square of a rational and qk an integer.
    """
    q = Fraction(q)
    constants = series.constants()
    if not constants:
        raise SingularSeriesError("power of a series without a constant term")
    if len(constants) > 1:
        raise ValueError(f"series has {len(constants)} terms without letters, not one")
    (beta_exp, _, k), c = constants[0]
    if beta_exp:
        raise ValueError("the constant term of a central series carries no beta")
    if q.denominator == 1:
        factor = c**q.numerator
    elif q.denominator == 2:
        root = Fraction(isqrt(c.numerator), isqrt(c.denominator)) if c > 0 else None
        if root is None or root * root != c:
            raise ValueError(f"constant term {c} is not the square of a rational")
        factor = root**q.numerator
    else:
        raise ValueError(f"exponent {q} is neither an integer nor a half-integer")
    if (q * k).denominator != 1:
        raise ValueError(f"m^{k} to the power {q} is not an integer power of m")
    x_expr = series.scale(1 / c).sub(AbstractExpr.m_power(k))
    return nc_binomial_power(x_expr.shift_m(-k), q, budget).scale(factor).shift_m(int(q * k))


# -- the named coefficient functions ----------------------------------------

# x = O^2/m^2
_X = AbstractExpr({(0, "OO", -2): Fraction(1)})


def _eps_power(q: int, budget) -> AbstractExpr:
    """eps^q = m^q (1 + x)^{q/2}."""
    return nc_binomial_power(_X, Fraction(q, 2), budget).shift_m(q)


def _eps_eps_plus_m(budget) -> AbstractExpr:
    """eps (eps + m) = eps^2 + m eps."""
    return _eps_power(2, budget).add(_eps_power(1, budget).shift_m(1))


def _registry_builders():
    def eps(budget):
        return _eps_power(1, budget)

    def inv_eps(budget):
        return _eps_power(-1, budget)

    def inv_eps_epsm(budget):
        return central_power(_eps_eps_plus_m(budget), -1, budget)

    def quartic_kernel(budget):
        # (2 eps (eps + m) + m^2) / (eps^2 (eps (eps + m))^2)
        product = _eps_eps_plus_m(budget)
        numerator = product.scale(2).add(AbstractExpr.m_power(2))
        return numerator.mul(_eps_power(-2, budget), budget).mul(
            central_power(product, -2, budget), budget
        )

    def inv_eps3(budget):
        return _eps_power(-3, budget)

    def inv_eps5(budget):
        return _eps_power(-5, budget)

    def inv_sqrt2(budget):
        return central_power(_eps_eps_plus_m(budget).scale(2), Fraction(-1, 2), budget)

    def fact_plus(budget):
        eps_plus_m = _eps_power(1, budget).add(AbstractExpr.m_power(1))
        return eps_plus_m.mul(inv_sqrt2(budget), budget)

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


def central_expand(name: str, budget) -> AbstractExpr:
    """Exact series of a registry function, truncated by the budget."""
    try:
        builder = REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown epsilon-function name {name!r}") from None
    return builder(budget)
