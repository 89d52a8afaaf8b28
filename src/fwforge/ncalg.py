"""Free beta-graded algebra over the generators E (even) and O (odd).

Elements are finite sums of terms  c * m^k * beta^b * w  where c is an
exact rational, k an integer power of the mass symbol, b in {0, 1}, and
w a word over the alphabet {E, O}.  beta commutes with E and m and
anticommutes with O; beta^2 = 1.  Normalizing beta to the left of every
term makes the form unique.

An expression stores its coefficients as integer numerators over one
positive denominator, in lowest terms: gcd(denominator, *numerators) is
1, and zero has denominator 1.  That normal form is unique, so equality
is equality of the denominator and the numerator map.  Coefficients go
in and come out as Fraction; the arithmetic in between is on integers.

Structured expressions (sums, products, commutators, anticommutators,
integer powers, central functions of eps = sqrt(m^2 + O^2)) live in a
small tree type; `expand` flattens a tree into canonical form under a
truncation budget, `evaluate` folds the letters, commutators and powers
of a tree over another algebra, and `parity_and_order` evaluates the
beta-parity and nominal hbar-order grading on the tree without expanding
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping

# A term key is (betaExp, word, mExp); the coefficient lives in the map.
TermKey = tuple[int, str, int]

_LETTERS = ("E", "O")


def o_count(word: str) -> int:
    return word.count("O")


def _term_sort_key(key: TermKey) -> tuple:
    beta_exp, word, m_exp = key
    return (beta_exp, (len(word), word), m_exp)


def _expr(terms: dict[TermKey, int], den: int) -> "AbstractExpr":
    """An expression over numerators already in lowest terms with `den`."""
    out = AbstractExpr.__new__(AbstractExpr)
    out._terms = terms
    out._den = den
    return out


def _reduced(terms: dict[TermKey, int], den: int) -> "AbstractExpr":
    """An expression over nonzero numerators, brought to lowest terms."""
    g = gcd(den, *terms.values())
    if g != 1:
        terms = {key: c // g for key, c in terms.items()}
        den //= g
    return _expr(terms, den)


class AbstractExpr:
    """Canonical sum of beta-graded words with exact rational coefficients.

    `_terms` maps each term key to a nonzero integer numerator and `_den`
    is their common positive denominator, with no factor shared by all of
    them.  Instances are immutable by convention: every operation returns
    a new expression.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[TermKey, Fraction] | None = None):
        coeffs = {key: Fraction(c) for key, c in terms.items() if c} if terms else {}
        # Over the lcm of lowest-terms denominators the numerators share
        # no factor with it, so the result is already in lowest terms.
        den = lcm(*(c.denominator for c in coeffs.values()))
        self._terms = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        self._den = den

    # -- construction -------------------------------------------------

    @staticmethod
    def zero() -> "AbstractExpr":
        return _expr({}, 1)

    @staticmethod
    def rational(value) -> "AbstractExpr":
        return AbstractExpr({(0, "", 0): Fraction(value)})

    @staticmethod
    def generator(letter: str) -> "AbstractExpr":
        if letter not in _LETTERS:
            raise ValueError(f"unknown generator {letter!r}")
        return _expr({(0, letter, 0): 1}, 1)

    @staticmethod
    def beta() -> "AbstractExpr":
        return _expr({(1, "", 0): 1}, 1)

    @staticmethod
    def m_power(k: int) -> "AbstractExpr":
        return _expr({(0, "", k): 1}, 1)

    @staticmethod
    def from_terms(items: Iterable[tuple[TermKey, Fraction]]) -> "AbstractExpr":
        acc: dict[TermKey, Fraction] = {}
        for key, coeff in items:
            acc[key] = acc.get(key, 0) + coeff
        return AbstractExpr(acc)

    # -- inspection ----------------------------------------------------

    def terms(self) -> list[tuple[TermKey, Fraction]]:
        """Terms in canonical order (betaExp, (len(word), word), mExp)."""
        den = self._den
        return sorted(
            ((key, Fraction(c, den)) for key, c in self._terms.items()),
            key=lambda kv: _term_sort_key(kv[0]),
        )

    def coefficient(self, beta_exp: int, word: str, m_exp: int) -> Fraction:
        return Fraction(self._terms.get((beta_exp, word, m_exp), 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[TermKey, Fraction]]:
        return iter(self.terms())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbstractExpr):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self._den, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        from fwforge.lang import format_expr

        return f"AbstractExpr({format_expr(self)!r})"

    # -- linear structure ----------------------------------------------

    def _combine(self, other: "AbstractExpr", sign: int) -> "AbstractExpr":
        """self + sign * other over the lcm of the two denominators."""
        den = lcm(self._den, other._den)
        f1, f2 = den // self._den, sign * (den // other._den)
        acc = {key: c * f1 for key, c in self._terms.items()}
        for key, c in other._terms.items():
            new = acc.get(key, 0) + c * f2
            if new:
                acc[key] = new
            else:
                del acc[key]
        return _reduced(acc, den)

    def add(self, other: "AbstractExpr") -> "AbstractExpr":
        if not self._terms:
            return other
        if not other._terms:
            return self
        return self._combine(other, 1)

    def sub(self, other: "AbstractExpr") -> "AbstractExpr":
        return self._combine(other, -1)

    def scale(self, factor) -> "AbstractExpr":
        factor = Fraction(factor)
        if not factor:
            return AbstractExpr.zero()
        num = factor.numerator
        return _reduced(
            {key: c * num for key, c in self._terms.items()}, self._den * factor.denominator
        )

    def shift_m(self, delta: int) -> "AbstractExpr":
        """Multiply by the central factor m^delta."""
        return _expr(
            {(b, w, k + delta): c for (b, w, k), c in self._terms.items()}, self._den
        )

    # -- multiplicative structure ---------------------------------------

    def _classes(self) -> dict[tuple[int, int], list[tuple[int, str, int, int]]]:
        """Terms as (beta, word, m, numerator), grouped by (len(word), eCount)."""
        groups: dict[tuple[int, int], list[tuple[int, str, int, int]]] = {}
        for (b, w, k), c in self._terms.items():
            klass = (len(w), w.count("E"))
            group = groups.get(klass)
            if group is None:
                groups[klass] = group = []
            group.append((b, w, k, c))
        return groups

    def mul(self, other: "AbstractExpr", budget: "Budget | None" = None) -> "AbstractExpr":
        """Product with beta normalized leftward.

        Moving beta^b2 of a right term across the left word w1 costs the
        sign (-1)^(b2 * oCount(w1)).  Each operand's terms are grouped by
        (word length, E count) once.  Both counts of a concatenated word
        are the sums of its parts' counts, so under a budget a whole class
        pair is kept when l1 + l2 <= maxWordLen and e1 + e2 <= maxECount,
        and skipped otherwise, without visiting its term pairs.  Letters
        only accumulate under multiplication, so this equals filtering
        after full distribution and kept coefficients are exact.  The
        numerators multiply as integers over the denominator d1 * d2,
        reduced once at the end.
        """
        if not self._terms or not other._terms:
            return AbstractExpr.zero()
        max_len = budget.max_word_len if budget is not None else None
        max_e = budget.max_e_count if budget is not None else None
        # A right class is kept twice: as it is, and with the sign a beta
        # takes crossing a left word of odd O count.
        rights = [
            (l2, e2, terms, [(b, w, k, -c if b else c) for b, w, k, c in terms])
            for (l2, e2), terms in other._classes().items()
        ]
        acc: dict[TermKey, int] = {}
        get = acc.get
        for (l1, e1), left in self._classes().items():
            odd1 = (l1 - e1) & 1
            for l2, e2, plain, flipped in rights:
                if max_len is not None and (l1 + l2 > max_len or e1 + e2 > max_e):
                    continue
                right = flipped if odd1 else plain
                for b1, w1, k1, c1 in left:
                    for b2, w2, k2, c2 in right:
                        key = (b1 ^ b2, w1 + w2, k1 + k2)
                        acc[key] = get(key, 0) + c1 * c2
        return _reduced({key: c for key, c in acc.items() if c}, self._den * other._den)

    def adjoint(self) -> "AbstractExpr":
        """Hermitian adjoint: E, O, beta, m self-adjoint, words reverse.

        (beta^b m^k w)^+ = m^k reverse(w) beta^b, and normalizing beta
        back to the left costs (-1)^(b * oCount(w)).
        """
        return _expr(
            {
                (b, w[::-1], k): -c if b and (o_count(w) & 1) else c
                for (b, w, k), c in self._terms.items()
            },
            self._den,
        )

    def commutator(self, other: "AbstractExpr", budget: "Budget | None" = None) -> "AbstractExpr":
        return self.mul(other, budget).sub(other.mul(self, budget))

    def anticommutator(self, other: "AbstractExpr", budget: "Budget | None" = None) -> "AbstractExpr":
        return self.mul(other, budget).add(other.mul(self, budget))

    def filtered(self, budget: "Budget") -> "AbstractExpr":
        """Drop terms whose word violates the budget."""
        return _reduced(
            {
                key: c
                for key, c in self._terms.items()
                if len(key[1]) <= budget.max_word_len
                and len(key[1]) - o_count(key[1]) <= budget.max_e_count
            },
            self._den,
        )

    def classify(self) -> dict[tuple[int, int], "AbstractExpr"]:
        """Partition terms by (eCount, oCount); the union reconstitutes self."""
        buckets: dict[tuple[int, int], dict[TermKey, int]] = {}
        for key, c in self._terms.items():
            word = key[1]
            oc = o_count(word)
            buckets.setdefault((len(word) - oc, oc), {})[key] = c
        return {klass: _reduced(terms, self._den) for klass, terms in buckets.items()}


ONE = AbstractExpr.rational(1)
BETA = AbstractExpr.beta()


# -- truncation budget ---------------------------------------------------


@dataclass(frozen=True)
class Budget:
    """Truncation bounds for expansion.

    Terms whose word is longer than max_word_len or contains more than
    max_e_count letters E are dropped.  term_cap bounds the number of
    stored terms in any intermediate expression; exceeding it raises
    BudgetOverflowError with the offending tree node path.
    """

    max_word_len: int
    max_e_count: int
    term_cap: int = 200_000

    def __post_init__(self):
        if self.max_word_len < 0 or self.max_e_count < 0:
            raise ValueError("budget bounds must be non-negative")


class BudgetOverflowError(ValueError):
    def __init__(self, path: str, count: int, cap: int):
        super().__init__(
            f"term count {count} exceeds cap {cap} at node {path or '<root>'}"
        )
        self.path = path
        self.count = count
        self.cap = cap


# -- structured expressions ----------------------------------------------


@dataclass(frozen=True)
class Gen:
    letter: str  # "E" or "O"


@dataclass(frozen=True)
class BetaF:
    pass


@dataclass(frozen=True)
class MPow:
    k: int


@dataclass(frozen=True)
class Rat:
    value: Fraction


@dataclass(frozen=True)
class Sum:
    children: tuple


@dataclass(frozen=True)
class Prod:
    children: tuple


@dataclass(frozen=True)
class Comm:
    left: object
    right: object


@dataclass(frozen=True)
class Acomm:
    left: object
    right: object


@dataclass(frozen=True)
class PowN:
    base: object
    n: int


@dataclass(frozen=True)
class EpsFun:
    """Central function of eps = sqrt(m^2 + O^2) by registry name."""

    name: str


BracketExpr = Gen | BetaF | MPow | Rat | Sum | Prod | Comm | Acomm | PowN | EpsFun


# -- expansion -------------------------------------------------------------


def expand(tree: BracketExpr, budget: Budget) -> AbstractExpr:
    """Flatten a structured expression to canonical form under a budget.

    Truncation drops only whole over-budget words after distribution at
    each node, so every retained coefficient is exact.
    """
    result = _expand_at(tree, budget, "")
    return result


def check_term_cap(expr: AbstractExpr, budget: Budget, path: str) -> AbstractExpr:
    """The expression itself, or BudgetOverflowError naming `path` when it
    holds more than budget.term_cap terms."""
    if len(expr) > budget.term_cap:
        raise BudgetOverflowError(path, len(expr), budget.term_cap)
    return expr


def _expand_at(tree, budget: Budget, path: str) -> AbstractExpr:
    if isinstance(tree, Gen):
        return AbstractExpr.generator(tree.letter).filtered(budget)
    if isinstance(tree, BetaF):
        return BETA
    if isinstance(tree, MPow):
        return AbstractExpr.m_power(tree.k)
    if isinstance(tree, Rat):
        return AbstractExpr.rational(tree.value)
    if isinstance(tree, EpsFun):
        # Central series in x = O^2/m^2, spelled as words of O pairs.
        from fwforge.fseries import central_expand

        return check_term_cap(central_expand(tree.name, budget), budget, path)
    if isinstance(tree, Sum):
        acc = AbstractExpr.zero()
        for i, child in enumerate(tree.children):
            acc = acc.add(_expand_at(child, budget, f"{path}.Sum[{i}]"))
        return check_term_cap(acc, budget, path)
    if isinstance(tree, Prod):
        acc = ONE
        for i, child in enumerate(tree.children):
            acc = acc.mul(_expand_at(child, budget, f"{path}.Prod[{i}]"), budget)
            check_term_cap(acc, budget, f"{path}.Prod[{i}]")
        return acc
    if isinstance(tree, Comm):
        a = _expand_at(tree.left, budget, path + ".Comm.left")
        b = _expand_at(tree.right, budget, path + ".Comm.right")
        return check_term_cap(a.commutator(b, budget), budget, path)
    if isinstance(tree, Acomm):
        a = _expand_at(tree.left, budget, path + ".Acomm.left")
        b = _expand_at(tree.right, budget, path + ".Acomm.right")
        return check_term_cap(a.anticommutator(b, budget), budget, path)
    if isinstance(tree, PowN):
        if tree.n < 0:
            raise ValueError("PowN exponent must be non-negative")
        base = _expand_at(tree.base, budget, path + ".Pow.base")
        # Over-budget words span a two-sided ideal, so the truncated product
        # is associative and the power squares: about two products per bit
        # of n, each some base^k with k <= n.
        acc = ONE
        n = tree.n
        while n:
            if n & 1:
                acc = check_term_cap(acc.mul(base, budget), budget, path + ".Pow")
            n >>= 1
            if n:
                base = check_term_cap(base.mul(base, budget), budget, path + ".Pow")
                if base.is_zero():  # every further power vanishes too
                    return base
        return acc
    raise TypeError(f"not a BracketExpr node: {tree!r}")


def evaluate(tree: BracketExpr, letters: Mapping[str, object], reduce: Callable):
    """Fold the letters, comm and pow (n >= 1) nodes of a tree over another
    algebra whose elements have `mul` and `commutator`; any other node
    raises TypeError.  `reduce` brings each node's value to the algebra's
    canonical form as soon as it is built, which keeps products small."""
    if isinstance(tree, Gen):
        return reduce(letters[tree.letter])
    if isinstance(tree, Comm):
        left = evaluate(tree.left, letters, reduce)
        return reduce(left.commutator(evaluate(tree.right, letters, reduce)))
    if isinstance(tree, PowN) and tree.n >= 1:
        base = evaluate(tree.base, letters, reduce)
        acc = base
        for _ in range(tree.n - 1):
            acc = reduce(acc.mul(base))
        return acc
    raise TypeError(f"evaluate handles letters, comm and pow(n >= 1), not {tree!r}")


# -- beta-parity and nominal hbar-order grading ----------------------------

EVEN = "even"
ODD = "odd"
MIXED = "mixed"


def parity_and_order(tree: BracketExpr) -> tuple[str, int | None]:
    """Grade a structured expression.

    Parity: E even, O odd, beta/m/scalars/eps-functions even; products,
    commutators and anticommutators XOR their children.  Order counts the
    guaranteed powers of hbar: generators 0; Product and Anticommutator
    add children; Commutator adds children plus one unless both children
    are odd (odd operators fail to commute already through their matrix
    parts, so that bracket costs no hbar).  A Sum of unequal parities is
    mixed and has no defined order.
    """
    if isinstance(tree, Gen):
        return (ODD if tree.letter == "O" else EVEN, 0)
    if isinstance(tree, (BetaF, MPow, Rat, EpsFun)):
        return (EVEN, 0)
    if isinstance(tree, Sum):
        parts = [parity_and_order(c) for c in tree.children]
        if not parts:
            return (EVEN, 0)
        parities = {p for p, _ in parts}
        if MIXED in parities or len(parities) > 1:
            return (MIXED, None)
        return (parts[0][0], min(order for _, order in parts))
    if isinstance(tree, Prod):
        parity_bit, order = 0, 0
        for child in tree.children:
            p, h = parity_and_order(child)
            if p == MIXED:
                return (MIXED, None)
            parity_bit ^= p == ODD
            order += h
        return (ODD if parity_bit else EVEN, order)
    if isinstance(tree, (Comm, Acomm)):
        pl, hl = parity_and_order(tree.left)
        pr, hr = parity_and_order(tree.right)
        if pl == MIXED or pr == MIXED:
            return (MIXED, None)
        parity = ODD if (pl == ODD) != (pr == ODD) else EVEN
        order = hl + hr
        if isinstance(tree, Comm) and not (pl == ODD and pr == ODD):
            order += 1
        return (parity, order)
    if isinstance(tree, PowN):
        p, h = parity_and_order(tree.base)
        if p == MIXED:
            return (MIXED, None)
        parity = ODD if (p == ODD and tree.n % 2) else EVEN
        return (parity, h * tree.n)
    raise TypeError(f"not a BracketExpr node: {tree!r}")
