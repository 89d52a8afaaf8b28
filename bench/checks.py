"""Output checks, one per command, that do not rest on a copy of any output.

Each check reads the report a command wrote and tests what it claims
against an independent computation: the symbolic reports are evaluated
on seeded random matrices (`algebra`), the spectra against Landau
formulas written here.  A check returns the list of problems it found;
an empty list passes.

`Context` carries what one round shares: the seeded matrices and the
reports earlier commands of the round wrote (the derive ladder compares
its residual classes across budgets, an `original` spectrum is compared
with its `fw` spectrum).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

import algebra

# Relative agreement demanded of float evaluations of exact statements.
CLASS_TOL = 1e-6
# A power of s counts as present above this share of the largest one; the
# rounding floor sits near 1e-7 of it at this radius.
ORDER_TOL = 1e-4
DERIVE_SERIES_RADIUS = 0.4
LANDAU_TOL = 1e-9
LANDAU_LEVELS = 12


class Context:
    """Seeded inputs and earlier reports of one round."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.compare_ops = algebra.random_operators(rng, 6, rng.uniform(1.2, 1.6))
        self.derive_ops = algebra.random_operators(rng, 6, rng.uniform(0.9, 1.3))
        self.expand_ops = algebra.random_operators(rng, 3, rng.uniform(0.8, 1.2))
        self.derive_residual = None
        self.fw_levels = {}
        self._derive_parts = None
        self._derive_series = None

    def derive_parts(self) -> np.ndarray:
        """Class parts of (closed form - exact transform), shared by the ladder."""
        if self._derive_parts is None:
            self._derive_parts = algebra.class_parts(
                _closed_form_error,
                self.derive_ops,
                points=24,
                radius=(0.2, 0.4),
            )
        return self._derive_parts

    def derive_series(self) -> np.ndarray:
        """Powers of s in (closed form - exact transform) at E ~ s^2, O ~ s."""
        if self._derive_series is None:
            self._derive_series = algebra.weight_series(
                _closed_form_error, self.derive_ops, radius=DERIVE_SERIES_RADIUS
            )
        return self._derive_series


# -- compare ------------------------------------------------------------------------------


def check_compare(report: dict, rc: int, ctx: Context) -> list[str]:
    """Direct and iterative results agree through first order, and every
    reported bracket combination is the class part of their difference."""
    problems = []
    if rc != 0:
        problems.append(f"compare exited {rc}; a difference is not certified at order >= 2")
    rows = {(row["e"], row["o"]): row for row in report["classes"]}
    for (e, o), row in sorted(rows.items()):
        if row["status"] == "differs" and not (row["hbar_order_min"] or 0) >= 2:
            problems.append(f"class ({e},{o}) certified at order {row['hbar_order_min']}, below 2")

    ops = ctx.compare_ops
    parts = algebra.class_parts(
        lambda o: algebra.eriksen_fw(o) - algebra.iterative_fw(o), ops, radius=(0.15, 0.3)
    )
    budget = report["budget"]
    max_len, max_e = budget["max_word_len"], budget["max_e_count"]
    scale = max(np.abs(parts[e, o]).max() for e in range(max_e + 1) for o in range(max_len + 1 - e))
    for e in range(max_e + 1):
        for o in range(max_len + 1 - e):
            row = rows.get((e, o))
            claimed = np.zeros_like(ops.identity, dtype=complex)
            if row is not None and row["status"] == "differs":
                for entry in row["basis_terms"]:
                    text = f"{entry['coeff']} m^{entry['m_exp']} * {entry['bracket_text']}"
                    claimed = claimed + algebra.evaluate(text, ops)
                claimed = claimed + algebra.WordSum(ops).total(row["residual"])
            error = np.abs(parts[e, o] - claimed).max()
            if error > CLASS_TOL * scale:
                problems.append(
                    f"class ({e},{o}): reported combination is off the evaluated "
                    f"difference by {error:.3e} (scale {scale:.3e})"
                )
    return problems


# -- derive eriksen ------------------------------------------------------------------------


def truncation_order(max_len: int, max_e: int) -> int:
    """Lowest weight 2e + o among the words the budget drops: with E ~ s^2
    and O ~ s, the error of a budget-truncated expansion falls at least as
    fast as s to this power."""
    return min(max_len + 1, 2 * (max_e + 1))


def _closed_form_error(ops: algebra.Operators) -> np.ndarray:
    return algebra.eriksen_closed_form(ops) - algebra.eriksen_fw(ops)


def check_derive(report: dict, rc: int, ctx: Context) -> list[str]:
    """Closed form plus the reported residual and extra classes rebuilds
    the exact Eriksen transform: class by class inside the budget, and with
    E ~ s^2, O ~ s its error starts at the budget's truncation order.  The
    in-scope residual is the same at every budget of the ladder."""
    problems = []
    budget = report["budget"]
    max_len, max_e = budget["max_word_len"], budget["max_e_count"]
    reported: dict[tuple[int, int], list[str]] = {}
    for row in report["residual_classes"] + report["extra_classes"]:
        reported.setdefault((row["e"], row["o"]), []).extend(row["terms"])
    outside = sorted(k for k in reported if k[0] > max_e or sum(k) > max_len)
    if outside:
        problems.append(f"classes outside the budget: {outside}")
    words = algebra.WordSum(ctx.derive_ops)
    claimed = {
        (e, o): words.total(reported.get((e, o), []))
        for e in range(max_e + 1)
        for o in range(max_len + 1 - e)
    }

    # The class part of H_FW - closed form is what the report lists.
    parts = ctx.derive_parts()
    scale = max(np.abs(value).max() for value in claimed.values())
    for (e, o), value in claimed.items():
        error = np.abs(parts[e, o] + value).max()
        if error > CLASS_TOL * scale:
            problems.append(f"class ({e},{o}) is off the exact transform by {error:.3e}")

    series = ctx.derive_series().copy()
    radius = DERIVE_SERIES_RADIUS
    for (e, o), value in claimed.items():
        series[2 * e + o] += value * radius ** (2 * e + o)
    sizes = np.abs(series).max(axis=(1, 2))
    order = int(np.argmax(sizes > ORDER_TOL * sizes.max()))
    expected = truncation_order(max_len, max_e)
    if order < expected:
        problems.append(
            f"rebuilt H_FW differs from the exact transform at s^{order}, below the "
            f"truncation order {expected}"
        )

    residual = report["residual_classes"]
    if ctx.derive_residual is None:
        ctx.derive_residual = residual
    elif residual != ctx.derive_residual:
        problems.append("in-scope residual classes differ from the first budget of the ladder")
    return problems


# -- expand ------------------------------------------------------------------------------

_TERM_SPLIT = re.compile(r" (?=[+-] )")


def split_canonical(text: str) -> list[str]:
    """Signed terms of a canonical word sum ("1 m^2 - 3 E O + ...")."""
    return [part.replace("+ ", "").replace("- ", "-") for part in _TERM_SPLIT.split(text)]


EXPAND_POWER = 14


def check_expand(report: dict, rc: int, ctx: Context) -> list[str]:
    """The canonical words are the in-budget part of (beta m + E + O)^14."""
    problems = []
    budget = report["budget"]
    max_len, max_e = budget["max_word_len"], budget["max_e_count"]
    ops = ctx.expand_ops
    by_class: dict[tuple[int, int], list[str]] = {}
    for term in split_canonical(report["canonical"]):
        letters = [t for t in term.split() if t in ("E", "O")]
        e, o = letters.count("E"), letters.count("O")
        if e > max_e or e + o > max_len:
            problems.append(f"term outside the budget: {term}")
        by_class.setdefault((e, o), []).append(term)
    # A polynomial of degree 14 in a and b: 16 points make the transform exact.
    parts = algebra.class_parts(
        lambda o: np.linalg.matrix_power(o.m * o.beta + o.E + o.O, EXPAND_POWER),
        ops,
        radius=(1.0, 1.0),
    )
    words = algebra.WordSum(ops)
    for e in range(max_e + 1):
        for o in range(max_len + 1 - e):
            claimed = words.total(by_class.get((e, o), []))
            scale = max(1.0, np.abs(parts[e, o]).max())
            error = np.abs(parts[e, o] - claimed).max()
            if error > CLASS_TOL * scale:
                problems.append(f"class ({e},{o}) of the expansion is off by {error:.3e}")
    return problems


# -- concretize --------------------------------------------------------------------------

_AXES = "xyz"
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _term(matrix, coeff, scalars, word):
    functions = sorted(t for t in word.split() if t.startswith("Phi"))
    momenta = sorted(t for t in word.split() if not t.startswith("Phi"))
    return (matrix, Fraction(coeff), tuple(sorted(scalars.split())), tuple(functions + momenta))


def _displayed_electrostatic() -> dict[str, set]:
    """The four bracket interiors for O = alpha . p, E = e Phi, written out
    from the displayed forms, normal ordered, through hbar^2."""
    laplacian_and_spin_orbit = {_term("1", -1, "e hbar^2", f"Phi_{a}{a}") for a in _AXES}
    for i, j, k in _CYCLIC:
        # -2 e hbar Sigma . (grad Phi x p)
        sigma = f"Sigma_{_AXES[i]}"
        laplacian_and_spin_orbit.add(_term(sigma, -2, "e hbar", f"Phi_{_AXES[j]} p_{_AXES[k]}"))
        laplacian_and_spin_orbit.add(_term(sigma, 2, "e hbar", f"Phi_{_AXES[k]} p_{_AXES[j]}"))
    curvature, field_squared, power_squared = set(), set(), set()
    for i in range(3):
        a = _AXES[i]
        field_squared.add(_term("1", -1, "e^2 hbar^2", f"Phi_{a} Phi_{a}"))
        for j in range(i, 3):
            b = _AXES[j]
            weight = -4 if i == j else -8
            # -4 e hbar^2 (p . grad)(p . grad) Phi and -e^2 hbar^2 (p . E + E . p)^2
            curvature.add(_term("1", weight, "e hbar^2", f"Phi_{a}{b} p_{a} p_{b}"))
            power_squared.add(_term("1", weight, "e^2 hbar^2", f"Phi_{a} Phi_{b} p_{a} p_{b}"))
    return {
        "inv_eps_epsm": laplacian_and_spin_orbit,
        "quartic_kernel": curvature,
        "inv_eps3": field_squared,
        "inv_eps5": power_squared,
    }


def _dirac_basis() -> dict[str, np.ndarray]:
    """The 16 Dirac matrices in the Dirac representation, gamma5 = -[[0,1],[1,0]]."""
    one, zero = np.eye(2), np.zeros((2, 2))
    pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    beta = np.block([[one, zero], [zero, -one]]).astype(complex)
    gamma5 = -np.block([[zero, one], [one, zero]]).astype(complex)
    basis = {"1": np.eye(4, dtype=complex), "beta": beta, "gamma5": gamma5, "beta_gamma5": beta @ gamma5}
    for a, s in zip(_AXES, pauli):
        basis[f"Sigma_{a}"] = np.block([[s, zero], [zero, s]]).astype(complex)
    for a, s in zip(_AXES, pauli):
        basis[f"alpha_{a}"] = np.block([[zero, s], [s, zero]]).astype(complex)
    for a in _AXES:
        basis[f"gamma_{a}"] = beta @ basis[f"alpha_{a}"]
    for a in _AXES:
        basis[f"Pi_{a}"] = beta @ basis[f"Sigma_{a}"]
    return basis


def check_dirac_products() -> list[str]:
    """Every product of two Dirac basis matrices taken through
    ConcreteExpr.mul equals numpy's product of the same matrices."""
    from fwforge import concretizer as cz

    basis = _dirac_basis()
    problems = []

    def value(expr) -> np.ndarray:
        total = np.zeros((4, 4), dtype=complex)
        for (label, _eps, _scalars, _word), coeff in expr.terms():
            total += complex(coeff.re, coeff.im) * basis[label]
        return total

    def factor(label):
        return cz.matrix_factor(cz.ELECTROSTATIC, label)

    for label, matrix in cz.MATRIX_BASIS.items():
        explicit = np.array([[complex(c.re, c.im) for c in row] for row in matrix])
        if not np.array_equal(explicit, basis[label]):
            problems.append(f"basis matrix {label} differs from the Dirac representation")
    for a in basis:
        for b in basis:
            if not np.allclose(value(factor(a).mul(factor(b))), basis[a] @ basis[b], atol=1e-14):
                problems.append(f"ConcreteExpr.mul({a}, {b}) differs from the matrix product")
    return problems


def check_electrostatic(report: dict, rc: int, ctx: Context) -> list[str]:
    problems = []
    if rc != 0 or report["status"] != "pass":
        problems.append(f"concretize electrostatic: status {report['status']}, exit {rc}")
    displayed = _displayed_electrostatic()
    for block in report["blocks"]:
        derived = {_term(t["matrix"], t["coeff"], t["scalars"], t["word"]) for t in block["terms"]}
        if block["status"] != "match" or derived != displayed[block["prefactor"]]:
            problems.append(f"block {block['prefactor']} does not match its displayed form")
    if {b["prefactor"] for b in report["blocks"]} != set(displayed):
        problems.append("electrostatic report lacks a bracket block")
    return problems + check_dirac_products()


def _uniform_term(text: str) -> tuple:
    coeff, *rest = text.split()
    return coeff, tuple(sorted(rest))


def _displayed_uniform() -> set:
    """[O, E] = i e hbar alpha.E - 2 mu' beta gamma5 p.B - 2 i mu'^2 gamma5 E.B."""
    out = set()
    for a in _AXES:
        out.add(_uniform_term(f"i e hbar E_{a} alpha_{a}"))
        out.add(_uniform_term(f"-2 mu' B_{a} beta_gamma5 p_{a}"))
        out.add(_uniform_term(f"-2*i mu'^2 E_{a} B_{a} gamma5"))
    return out


def check_uniform(report: dict, rc: int, ctx: Context) -> list[str]:
    derived = [_uniform_term(t) for t in report["commutator"]]
    if rc != 0 or report["status"] != "match":
        return [f"concretize uniform-field: status {report['status']}, exit {rc}"]
    if len(derived) != len(set(derived)) or set(derived) != _displayed_uniform():
        return ["uniform-field commutator differs from its displayed form"]
    return []


# -- spectra -------------------------------------------------------------------------------


def landau_levels(model: dict, count: int) -> tuple[list[float], float]:
    """The lowest positive levels at g = 2, with their degeneracy at p_z = 0,
    through the whole degenerate group of the count-th level; and an energy
    cutoff midway to the next group."""
    m, x = model["m"], abs(model["e"]) * model["hbar"] * model["B"]
    particle = model["particle"]
    levels = []
    for n in range(count + 2):
        if particle == "spin0":
            levels.append(math.sqrt(m * m + (2 * n + 1) * x))
        elif particle == "spin12":
            # Johnson-Lippmann: sqrt(m^2 + 2k|e|hbar B), k >= 1 twice.
            levels.extend([math.sqrt(m * m + 2 * n * x)] * (1 if n == 0 else 2))
        else:
            levels.extend(math.sqrt(m * m + (2 * n + 1 - 2 * lam) * x) for lam in (-1, 0, 1))
    levels.sort()
    end = count
    while math.isclose(levels[end], levels[count - 1], rel_tol=1e-12):
        end += 1
    return levels[:end], (levels[end - 1] + levels[end]) / 2


def interior_levels(report: dict, cutoff: float) -> list[float]:
    """Positive interior eigenvalues below the cutoff, ascending."""
    return sorted(e["value"] for e in report["eigenvalues"] if e["interior"] and 0 < e["value"] < cutoff)


def _relative_gap(got, want) -> float:
    if len(got) != len(want):
        return math.inf
    return max(abs(a - b) / abs(b) for a, b in zip(got, want))


def check_spectra_run(report: dict, rc: int, ctx: Context) -> list[str]:
    model = report["model"]
    label = f"{model['particle']} {model['representation']}"
    if model["g"] != 2.0:
        raise ValueError("the Landau formulas here hold at g = 2")
    problems = []
    if rc != 0:
        problems.append(f"spectra run {label} exited {rc}")
    want, cutoff = landau_levels(model, LANDAU_LEVELS)
    got = interior_levels(report, cutoff)
    gap = _relative_gap(got, want)
    if not gap <= LANDAU_TOL:
        problems.append(f"{label}: lowest interior levels off the Landau formula by {gap:.3e}")
    if model["representation"] == "fw":
        ctx.fw_levels[model["particle"]] = got
    elif model["particle"] in ctx.fw_levels:
        gap = _relative_gap(got, ctx.fw_levels[model["particle"]])
        if not gap <= LANDAU_TOL:
            problems.append(f"{label}: interior levels differ from the fw form by {gap:.3e}")
    return problems


def check_status_pass(report: dict, rc: int, ctx: Context) -> list[str]:
    if rc != 0 or report["status"] != "pass":
        return [f"status {report['status']}, exit {rc}"]
    return []


def check_amm(report: dict, rc: int, ctx: Context) -> list[str]:
    scan = report["scan"]
    values = scan["residuals"] + scan["x_values"]
    if not scan["residuals"] or not all(isinstance(v, float) and math.isfinite(v) for v in values):
        return ["amm-scan residuals are not all finite"]
    return []
