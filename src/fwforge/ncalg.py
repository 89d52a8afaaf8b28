"""Free beta-graded algebra over the generators E (even) and O (odd).

Elements are finite sums of terms  c * m^k * beta^b * w  where c is an
exact rational, k an integer power of the mass symbol, b in {0, 1}, and
w a word over the alphabet {E, O}.  beta commutes with E and m and
anticommutes with O; beta^2 = 1.  Normalizing beta to the left of every
term makes the form unique.

An expression stores its terms in groups keyed by (word length, E count,
beta, m power); each group maps its words to integer numerators over one
positive denominator for the whole expression.  The normal form is
unique: no group is empty, every numerator is nonzero, gcd(denominator,
*numerators) is 1, and zero is no groups over denominator 1.  So
equality is equality of the denominator and the groups.  A group key is
what the product needs of a term: both counts of a concatenated word are
sums of its parts' counts, and the sign beta takes crossing a word reads
its O count, so `mul` works a group pair at a time.  Coefficients go in
and come out as Fraction; the arithmetic in between is on integers.

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
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping

# A term key is (betaExp, word, mExp); the coefficient lives in the map.
TermKey = tuple[int, str, int]
# A group key is (len(word), eCount, betaExp, mExp).
GroupKey = tuple[int, int, int, int]
Groups = dict[GroupKey, dict[str, int]]

_LETTERS = ("E", "O")


def _term_sort_key(key: TermKey) -> tuple:
    beta_exp, word, m_exp = key
    return (beta_exp, (len(word), word), m_exp)


def _expr(groups: Groups, den: int) -> "AbstractExpr":
    """An expression over groups already in normal form with `den`."""
    out = AbstractExpr.__new__(AbstractExpr)
    out._groups = groups
    out._den = den
    return out


def _reduced(groups: Groups, den: int) -> "AbstractExpr":
    """An expression over nonempty groups of nonzero numerators, brought
    to lowest terms."""
    g = gcd(den, *chain.from_iterable(group.values() for group in groups.values()))
    if g != 1:
        groups = {
            key: {w: c // g for w, c in group.items()} for key, group in groups.items()
        }
        den //= g
    return _expr(groups, den)


class AbstractExpr:
    """Canonical sum of beta-graded words with exact rational coefficients.

    `_groups` maps each (len(word), eCount, betaExp, mExp) to a nonempty
    map from word to nonzero integer numerator, and `_den` is the common
    positive denominator of all of them, with no factor shared by all the
    numerators.  Instances are immutable by convention, their groups
    included (an operation may share a group between expressions): every
    operation returns a new expression.
    """

    __slots__ = ("_groups", "_den")

    def __init__(self, terms: Mapping[TermKey, Fraction] | None = None):
        coeffs = {key: Fraction(c) for key, c in terms.items() if c} if terms else {}
        # Over the lcm of lowest-terms denominators the numerators share
        # no factor with it, so the result is already in lowest terms.
        den = lcm(*(c.denominator for c in coeffs.values()))
        groups: Groups = {}
        for (b, w, k), c in coeffs.items():
            key = (len(w), w.count("E"), b, k)
            group = groups.get(key)
            if group is None:
                groups[key] = group = {}
            group[w] = c.numerator * (den // c.denominator)
        self._groups = groups
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
        return _expr({(1, int(letter == "E"), 0, 0): {letter: 1}}, 1)

    @staticmethod
    def beta() -> "AbstractExpr":
        return _expr({(0, 0, 1, 0): {"": 1}}, 1)

    @staticmethod
    def m_power(k: int) -> "AbstractExpr":
        return _expr({(0, 0, 0, k): {"": 1}}, 1)

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
            (
                ((b, w, k), Fraction(c, den))
                for (_, _, b, k), group in self._groups.items()
                for w, c in group.items()
            ),
            key=lambda kv: _term_sort_key(kv[0]),
        )

    def constants(self) -> list[tuple[TermKey, Fraction]]:
        """The terms without letters, in canonical order."""
        den = self._den
        return sorted(
            ((b, "", k), Fraction(group[""], den))
            for (length, _, b, k), group in self._groups.items()
            if not length
        )

    def is_zero(self) -> bool:
        return not self._groups

    def __len__(self) -> int:
        return sum(map(len, self._groups.values()))

    def __iter__(self) -> Iterator[tuple[TermKey, Fraction]]:
        return iter(self.terms())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbstractExpr):
            return NotImplemented
        return self._den == other._den and self._groups == other._groups

    def __hash__(self):
        return hash(
            (
                self._den,
                frozenset((key, frozenset(group.items())) for key, group in self._groups.items()),
            )
        )

    def __repr__(self) -> str:
        from fwforge.lang import format_expr

        return f"AbstractExpr({format_expr(self)!r})"

    # -- linear structure ----------------------------------------------

    def _combine(self, other: "AbstractExpr", sign: int) -> "AbstractExpr":
        """self + sign * other over the lcm of the two denominators."""
        den = lcm(self._den, other._den)
        f1, f2 = den // self._den, sign * (den // other._den)
        groups = {
            key: {w: c * f1 for w, c in group.items()} for key, group in self._groups.items()
        }
        for key, group2 in other._groups.items():
            acc = groups.get(key)
            if acc is None:
                groups[key] = {w: c * f2 for w, c in group2.items()}
                continue
            for w, c in group2.items():
                new = acc.get(w, 0) + c * f2
                if new:
                    acc[w] = new
                else:
                    del acc[w]
            if not acc:
                del groups[key]
        return _reduced(groups, den)

    def add(self, other: "AbstractExpr") -> "AbstractExpr":
        if not self._groups:
            return other
        if not other._groups:
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
            {key: {w: c * num for w, c in group.items()} for key, group in self._groups.items()},
            self._den * factor.denominator,
        )

    def shift_m(self, delta: int) -> "AbstractExpr":
        """Multiply by the central factor m^delta."""
        return _expr(
            {(l, e, b, k + delta): group for (l, e, b, k), group in self._groups.items()},
            self._den,
        )

    # -- multiplicative structure ---------------------------------------

    def mul(self, other: "AbstractExpr", budget: "Budget") -> "AbstractExpr":
        """Product with beta normalized leftward, one group pair at a time.

        Moving beta^b2 of a right term across the left word w1 costs the
        sign (-1)^(b2 * oCount(w1)), one sign per group pair.  Both counts
        of a concatenated word are the sums of its parts' counts, so a
        group pair lands in the one group (l1 + l2, e1 + e2, b1 ^ b2,
        k1 + k2), and it is kept when l1 + l2 <= maxWordLen and
        e1 + e2 <= maxECount and skipped otherwise, without visiting its
        term pairs.  Letters only accumulate under multiplication, so
        this equals filtering after full distribution and kept
        coefficients are exact.  The numerators multiply as integers over
        the denominator d1 * d2, reduced once at the end.
        """
        if not self._groups or not other._groups:
            return AbstractExpr.zero()
        max_len, max_e = budget.max_word_len, budget.max_e_count
        out: Groups = {}
        for (l1, e1, b1, k1), left in self._groups.items():
            odd1 = (l1 - e1) & 1
            for (l2, e2, b2, k2), right in other._groups.items():
                if l1 + l2 > max_len or e1 + e2 > max_e:
                    continue
                key = (l1 + l2, e1 + e2, b1 ^ b2, k1 + k2)
                acc = out.get(key)
                if acc is None:
                    out[key] = acc = {}
                get = acc.get
                sign = -1 if odd1 and b2 else 1
                for w1, c1 in left.items():
                    c1 *= sign
                    for w2, c2 in right.items():
                        w = w1 + w2
                        acc[w] = get(w, 0) + c1 * c2
        groups: Groups = {}
        for key, acc in out.items():
            kept = {w: c for w, c in acc.items() if c}
            if kept:
                groups[key] = kept
        return _reduced(groups, self._den * other._den)

    def adjoint(self) -> "AbstractExpr":
        """Hermitian adjoint: E, O, beta, m self-adjoint, words reverse.

        (beta^b m^k w)^+ = m^k reverse(w) beta^b, and normalizing beta
        back to the left costs (-1)^(b * oCount(w)), one sign per group.
        """
        return _expr(
            {
                (l, e, b, k): {w[::-1]: -c if b and (l - e) & 1 else c for w, c in group.items()}
                for (l, e, b, k), group in self._groups.items()
            },
            self._den,
        )

    def commutator(self, other: "AbstractExpr", budget: "Budget") -> "AbstractExpr":
        return self.mul(other, budget).sub(other.mul(self, budget))

    def anticommutator(self, other: "AbstractExpr", budget: "Budget") -> "AbstractExpr":
        return self.mul(other, budget).add(other.mul(self, budget))

    def filtered(self, budget: "Budget") -> "AbstractExpr":
        """Drop the groups whose words violate the budget."""
        return _reduced(
            {
                key: group
                for key, group in self._groups.items()
                if key[0] <= budget.max_word_len and key[1] <= budget.max_e_count
            },
            self._den,
        )

    def classify(self) -> dict[tuple[int, int], "AbstractExpr"]:
        """Partition terms by (eCount, oCount); the union reconstitutes self."""
        buckets: dict[tuple[int, int], Groups] = {}
        for key, group in self._groups.items():
            length, e_count = key[0], key[1]
            buckets.setdefault((e_count, length - e_count), {})[key] = group
        return {klass: _reduced(groups, self._den) for klass, groups in buckets.items()}


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
