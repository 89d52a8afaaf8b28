"""Exact references the tests compare the program against.

Nothing in ``src/fwforge`` calls these; each one computes a result the
program computes another way, or reads out what the program never needs:

* 4x4 matrices with ``QQi`` entries, their products and their trace
  coordinates in a basis, and the Dirac basis built from 2x2 Pauli blocks.
  The concretizer writes the basis once, as 16 monomials (one power of i
  per row) that it multiplies without ever forming a matrix; the
  ``QQi`` matrices of those monomials (``monomial_matrix``) must agree
  with this construction entry for entry, and with ``mat_mul`` on every
  product;
* a single-term concrete expression holding only a scalar monomial
  (``scalar_factor``), which no derivation builds on its own;
* the bracket basis seen whole or by text: every element sorted by
  order, class and text (``all_elements``), and the one element with a
  given text (``element``).  The comparator reaches elements only by
  class, through ``class_elements`` and ``class_rows``;
* an element's row read as a word vector (``word_vector``) or an
  expression (``expansion``), and a projection summed back into the
  piece it decomposes (``reconstruct``);
* the exact linear relation of every bracket-basis element that a class
  echelon, its elements taken from high order to low, skips
  (``dependencies``);
* products, brackets and directions of integer word vectors held as
  ``dict[str, int]``, one term pair at a time (``word_product``,
  ``word_brackets``, ``direction``, ``combine``): the comparator builds
  them as batched rows over the class words;
* mini-language text for a bracket tree (``format_tree``);
* the part of an expression in one letter class (``restrict_class``), and
  one coefficient of an expression read off its term listing
  (``coefficient``);
* the product of two expressions held as ``Fraction`` coefficient dicts,
  one term pair at a time, with or without a budget (``fraction_mul``):
  ``AbstractExpr.mul`` always takes a budget, multiplies integer
  numerators over one denominator and skips whole over-budget classes of
  terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import attrgetter
from typing import Mapping

import numpy as np

from fwforge.comparator import (
    BasisElement,
    BracketBasis,
    Projection,
    _class_words,
    _eliminate,
    _solve,
)
from fwforge.concretizer import ConcreteExpr, QQi
from fwforge.ncalg import (
    Acomm,
    AbstractExpr,
    BetaF,
    BracketExpr,
    Comm,
    EpsFun,
    Gen,
    MPow,
    PowN,
    Prod,
    Rat,
    Sum,
    TermKey,
)

# -- 4x4 matrices with QQi entries ---------------------------------------------

Matrix = tuple  # 4-tuple of 4-tuples of QQi

_ZERO = QQi.of(0)


def _block(a, b, c, d) -> Matrix:
    rows = []
    for i in range(2):
        rows.append(tuple(a[i]) + tuple(b[i]))
    for i in range(2):
        rows.append(tuple(c[i]) + tuple(d[i]))
    return tuple(rows)


def mat_add(x: Matrix, y: Matrix) -> Matrix:
    return tuple(tuple(x[i][j] + y[i][j] for j in range(4)) for i in range(4))


def mat_scale(x: Matrix, factor: QQi) -> Matrix:
    return tuple(tuple(cell * factor for cell in row) for row in x)


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    return tuple(
        tuple(
            sum((x[i][k] * y[k][j] for k in range(4)), _ZERO)
            for j in range(4)
        )
        for i in range(4)
    )


def conj(z: QQi) -> QQi:
    return QQi(z.re, -z.im)


def inner(x: Matrix, y: Matrix) -> QQi:
    """Trace inner product tr(x^dagger y) / 4, summed entry by entry."""
    total = sum(
        (conj(a) * b for row_x, row_y in zip(x, y) for a, b in zip(row_x, row_y)),
        _ZERO,
    )
    return total * Fraction(1, 4)


_UNITS = (QQi.of(1), QQi.of(0, 1), QQi.of(-1), QQi.of(0, -1))  # i**0 .. i**3


def monomial_matrix(monomial) -> Matrix:
    """The ``QQi`` matrix of a monomial ``(columns, powers)``: row r holds
    i**powers[r] in column columns[r] and zeros elsewhere."""
    columns, powers = monomial
    return tuple(
        tuple(_UNITS[powers[row]] if column == columns[row] else _ZERO for column in range(4))
        for row in range(4)
    )


def _pauli():
    one = [[QQi.of(1), _ZERO], [_ZERO, QQi.of(1)]]
    zero = [[_ZERO, _ZERO], [_ZERO, _ZERO]]
    s1 = [[_ZERO, QQi.of(1)], [QQi.of(1), _ZERO]]
    s2 = [[_ZERO, QQi.of(0, -1)], [QQi.of(0, 1), _ZERO]]
    s3 = [[QQi.of(1), _ZERO], [_ZERO, QQi.of(-1)]]
    return one, zero, (s1, s2, s3)


def pauli_block_basis() -> dict[str, Matrix]:
    """The 16 Dirac matrices in the concretizer's label order, built from
    2x2 Pauli blocks, with gamma, Pi and beta gamma5 as matrix products."""
    one2, zero2, sigma2 = _pauli()
    identity = _block(one2, zero2, zero2, one2)
    beta = _block(one2, zero2, zero2, [[-c for c in row] for row in one2])
    sigmas = [_block(s, zero2, zero2, s) for s in sigma2]
    alphas = [_block(zero2, s, s, zero2) for s in sigma2]
    gamma5 = mat_scale(_block(zero2, one2, one2, zero2), QQi.of(-1))
    basis: dict[str, Matrix] = {"1": identity, "beta": beta}
    basis["gamma5"] = gamma5
    basis["beta_gamma5"] = mat_mul(beta, gamma5)
    for name, mat in zip(("Sigma_x", "Sigma_y", "Sigma_z"), sigmas):
        basis[name] = mat
    for name, mat in zip(("alpha_x", "alpha_y", "alpha_z"), alphas):
        basis[name] = mat
    for name, alpha in zip(("gamma_x", "gamma_y", "gamma_z"), alphas):
        basis[name] = mat_mul(beta, alpha)
    for name, sigma in zip(("Pi_x", "Pi_y", "Pi_z"), sigmas):
        basis[name] = mat_mul(beta, sigma)
    return basis


PAULI_BLOCK_BASIS: dict[str, Matrix] = pauli_block_basis()


def decompose_matrix(
    matrix: Matrix, basis: Mapping[str, Matrix] = PAULI_BLOCK_BASIS
) -> dict[str, QQi]:
    """Exact coordinates of a 4x4 matrix in a 16-element basis."""
    out = {}
    for label, base in basis.items():
        coeff = inner(base, matrix)
        if not coeff.is_zero():
            out[label] = coeff
    return out


def recompose_matrix(
    coords: Mapping[str, QQi], basis: Mapping[str, Matrix] = PAULI_BLOCK_BASIS
) -> Matrix:
    total = mat_scale(basis["1"], _ZERO)
    for label, coeff in coords.items():
        total = mat_add(total, mat_scale(basis[label], coeff))
    return total


# -- a single-term concrete expression -----------------------------------------


def scalar_factor(mode: str, coeff=1, **exponents: int) -> ConcreteExpr:
    """coeff times a monomial in the scalar symbols, e.g. hbar=1, e=2."""
    return ConcreteExpr.term(mode).scalar_mul(**exponents).scale(coeff)


# -- the bracket basis whole, by text, and read as expressions -----------------


def _every_element(basis: BracketBasis):
    return (el for klass in basis.classes() for el in basis.class_elements(*klass))


def all_elements(basis: BracketBasis) -> tuple[BasisElement, ...]:
    """Every element of every class, by order, then class, then text."""
    return tuple(
        sorted(_every_element(basis), key=attrgetter("order", "e_count", "o_count", "text"))
    )


def element(basis: BracketBasis, text: str) -> BasisElement:
    """The one element spelled `text`; fails unless exactly one is."""
    matches = [el for el in _every_element(basis) if el.text == text]
    assert len(matches) == 1, (text, len(matches))
    return matches[0]


def word_vector(el: BasisElement) -> dict[str, int]:
    """The element's nonzero coefficients by word, words in sorted order."""
    words = _class_words(el.klass)
    return {words[col]: int(el.row[col]) for col in np.flatnonzero(el.row)}


def expansion(el: BasisElement) -> AbstractExpr:
    """The element's word vector as an expression."""
    return AbstractExpr({(0, word, 0): coeff for word, coeff in word_vector(el).items()})


def reconstruct(projection: Projection) -> AbstractExpr:
    """The residual plus each entry's element, scaled by its weight and
    dressed in its beta and m powers."""
    total = projection.residual
    for entry in projection.entries:
        total = total.add(
            AbstractExpr.from_terms(
                ((entry.beta_exp, word, entry.m_exp), coeff * entry.weight)
                for word, coeff in word_vector(entry.element).items()
            )
        )
    return total


# -- bracket-basis dependencies ------------------------------------------------


@dataclass(frozen=True)
class Dependency:
    """A rejected candidate with its exact expression in admitted elements."""

    text: str
    order: int
    e_count: int
    o_count: int
    members: tuple[tuple[str, Fraction], ...]


def insertion_order(basis: BracketBasis, klass: tuple[int, int]) -> list[BasisElement]:
    """The class elements from high order to low, then commutators before
    powers before anticommutators, then by text."""
    return sorted(basis.class_elements(*klass), key=lambda el: (-el.order, el.kind, el.text))


def class_rows(
    basis: BracketBasis, klass: tuple[int, int], elements: list[BasisElement]
) -> np.ndarray:
    """The rows of `elements`, all of that class, in the order given, taken
    from `basis.class_rows`."""
    at = {element.text: row for row, element in enumerate(basis.class_elements(*klass))}
    return basis.class_rows(klass)[[at[element.text] for element in elements]]


def dependencies(basis: BracketBasis) -> tuple[Dependency, ...]:
    """Every element spanned by the higher-order ones of its class, with
    its exact relation: each is solved over the elements that become rows
    of the class echelon in `insertion_order` (those before it carry all
    its weight)."""
    found = []
    for klass in basis.classes():
        order = insertion_order(basis, klass)
        _, pivots = _eliminate(class_rows(basis, klass, order))
        kept = [element for element, pivot in zip(order, pivots) if pivot >= 0]
        spanned = [element for element, pivot in zip(order, pivots) if pivot < 0]
        if not spanned:
            continue
        rows, targets = class_rows(basis, klass, kept), class_rows(basis, klass, spanned)
        solutions = _solve(rows, targets, [1] * len(spanned))
        for element, (_, weights) in zip(spanned, solutions):
            found.append(
                Dependency(
                    text=element.text,
                    order=element.order,
                    e_count=element.e_count,
                    o_count=element.o_count,
                    members=tuple(
                        sorted(
                            (member.text, weight)
                            for member, weight in zip(kept, weights)
                            if weight
                        )
                    ),
                )
            )
    found.sort(key=lambda dep: (dep.order, (dep.e_count, dep.o_count), dep.text))
    return tuple(found)


# -- integer word vectors as dicts ---------------------------------------------


def combine(p: int, target: dict, q: int, source: dict) -> dict:
    """p * target + q * source, without the entries that cancel."""
    out = dict(target) if p == 1 else {key: p * value for key, value in target.items()}
    for key, value in source.items():
        total = out.get(key, 0) + q * value
        if total:
            out[key] = total
        else:
            del out[key]
    return out


def word_product(left: dict[str, int], right: dict[str, int]) -> dict[str, int]:
    """Product of two integer word vectors, without the words that cancel."""
    out: dict[str, int] = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            word = w1 + w2
            out[word] = out.get(word, 0) + c1 * c2
    return {word: coeff for word, coeff in out.items() if coeff}


def word_brackets(
    left: dict[str, int], right: dict[str, int]
) -> tuple[dict[str, int], dict[str, int]]:
    """(commutator, anticommutator) of two integer word vectors."""
    forward = word_product(left, right)
    backward = word_product(right, left)
    return combine(1, forward, -1, backward), combine(1, forward, 1, backward)


def direction(vector: dict[str, int]) -> tuple:
    """The word-ordered vector over its gcd, signed so the lead is positive:
    parallel vectors, and only they, share it."""
    words = sorted(vector)
    content = gcd(*vector.values())
    if vector[words[0]] < 0:
        content = -content
    return tuple((word, vector[word] // content) for word in words)


# -- bracket trees as text -----------------------------------------------------


def _format_tree_factor(tree: BracketExpr) -> str:
    """Render `tree` so it can stand as one factor of a product."""
    rendered = format_tree(tree)
    if isinstance(tree, Sum) or rendered.startswith("-"):
        return f"({rendered})"
    return rendered


def format_tree(tree: BracketExpr) -> str:
    """Mini-language text for a structured tree.

    parse_expr(format_tree(t)) expands to the same AbstractExpr as t;
    the tree shape itself is not always preserved (product chains
    re-associate, explicit '*' joins every factor).
    """
    if isinstance(tree, Gen):
        return tree.letter
    if isinstance(tree, BetaF):
        return "beta"
    if isinstance(tree, MPow):
        return f"m^{tree.k}"
    if isinstance(tree, Rat):
        return str(tree.value)
    if isinstance(tree, Comm):
        return f"comm({format_tree(tree.left)}, {format_tree(tree.right)})"
    if isinstance(tree, Acomm):
        return f"acomm({format_tree(tree.left)}, {format_tree(tree.right)})"
    if isinstance(tree, PowN):
        return f"pow({format_tree(tree.base)}, {tree.n})"
    if isinstance(tree, EpsFun):
        return f"epsfun({tree.name})"
    if isinstance(tree, Prod):
        return " * ".join(_format_tree_factor(child) for child in tree.children)
    if isinstance(tree, Sum):
        parts = []
        for position, child in enumerate(tree.children):
            rendered = format_tree(child)
            if position == 0:
                parts.append(rendered)
            elif rendered.startswith("-"):
                parts.append(" - " + rendered[1:])
            else:
                parts.append(" + " + rendered)
        return "".join(parts)
    raise TypeError(f"cannot format {type(tree).__name__}")


# -- letter classes and coefficients -------------------------------------------


def restrict_class(expr: AbstractExpr, e: int, o: int) -> AbstractExpr:
    """The terms of `expr` whose word has e letters E and o letters O."""
    return AbstractExpr(
        {
            key: coeff
            for key, coeff in expr.terms()
            if key[1].count("O") == o and key[1].count("E") == e
        }
    )


def coefficient(expr: AbstractExpr, beta_exp: int, word: str, m_exp: int) -> Fraction:
    """The coefficient of m^m_exp beta^beta_exp word, read off the term
    listing; 0 for a term the expression does not hold."""
    return dict(expr.terms()).get((beta_exp, word, m_exp), Fraction(0))


# -- Fraction coefficient dicts --------------------------------------------------


def fraction_mul(
    left: Mapping[TermKey, Fraction], right: Mapping[TermKey, Fraction], budget=None
) -> dict[TermKey, Fraction]:
    """The product of two coefficient dicts, beta normalized leftward.

    Every term pair is visited; a pair whose concatenated word breaks the
    budget (max_word_len, max_e_count) is skipped.  Moving beta^b2 across
    the left word w1 costs (-1)^(b2 * oCount(w1)).
    """
    acc: dict[TermKey, Fraction] = {}
    for (b1, w1, k1), c1 in left.items():
        for (b2, w2, k2), c2 in right.items():
            word = w1 + w2
            if budget is not None and (
                len(word) > budget.max_word_len
                or word.count("E") > budget.max_e_count
            ):
                continue
            coeff = -c1 * c2 if b2 and w1.count("O") & 1 else c1 * c2
            key = ((b1 + b2) & 1, word, k1 + k2)
            acc[key] = acc.get(key, 0) + coeff
    return {key: coeff for key, coeff in acc.items() if coeff}
