"""Free beta-graded algebra over the generators E (even) and O (odd).

Elements are finite sums of terms  c * m^k * beta^b * w  where c is an
exact rational, k an integer power of the mass symbol, b in {0, 1}, and
w a word over the alphabet {E, O}.  beta commutes with E and m and
anticommutes with O; beta^2 = 1.  Normalizing beta to the left of every
term makes the form unique, so equality is term-list equality.

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
from typing import Callable, Iterable, Iterator, Mapping

# A term key is (betaExp, word, mExp); the coefficient lives in the map.
TermKey = tuple[int, str, int]

_LETTERS = ("E", "O")


def o_count(word: str) -> int:
    return word.count("O")


def _term_sort_key(key: TermKey) -> tuple:
    beta_exp, word, m_exp = key
    return (beta_exp, (len(word), word), m_exp)


class AbstractExpr:
    """Canonical sum of beta-graded words with exact rational coefficients.

    Instances are immutable by convention: every operation returns a new
    expression.  Zero-coefficient terms are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[TermKey, Fraction] | None = None):
        clean: dict[TermKey, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    clean[key] = Fraction(coeff)
        self._terms = clean

    # -- construction -------------------------------------------------

    @staticmethod
    def zero() -> "AbstractExpr":
        return AbstractExpr()

    @staticmethod
    def rational(value) -> "AbstractExpr":
        return AbstractExpr({(0, "", 0): Fraction(value)})

    @staticmethod
    def generator(letter: str) -> "AbstractExpr":
        if letter not in _LETTERS:
            raise ValueError(f"unknown generator {letter!r}")
        return AbstractExpr({(0, letter, 0): Fraction(1)})

    @staticmethod
    def beta() -> "AbstractExpr":
        return AbstractExpr({(1, "", 0): Fraction(1)})

    @staticmethod
    def m_power(k: int) -> "AbstractExpr":
        return AbstractExpr({(0, "", k): Fraction(1)})

    @staticmethod
    def from_terms(items: Iterable[tuple[TermKey, Fraction]]) -> "AbstractExpr":
        acc: dict[TermKey, Fraction] = {}
        for key, coeff in items:
            new = acc.get(key, _ZERO_FRACTION) + coeff
            if new:
                acc[key] = new
            else:
                acc.pop(key, None)
        return AbstractExpr(acc)

    # -- inspection ----------------------------------------------------

    def terms(self) -> list[tuple[TermKey, Fraction]]:
        """Terms in canonical order (betaExp, (len(word), word), mExp)."""
        return sorted(self._terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def coefficient(self, beta_exp: int, word: str, m_exp: int) -> Fraction:
        return self._terms.get((beta_exp, word, m_exp), _ZERO_FRACTION)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[TermKey, Fraction]]:
        return iter(self.terms())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbstractExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        from fwforge.lang import format_expr

        return f"AbstractExpr({format_expr(self)!r})"

    # -- linear structure ----------------------------------------------

    def add(self, other: "AbstractExpr") -> "AbstractExpr":
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            new = acc.get(key, _ZERO_FRACTION) + coeff
            if new:
                acc[key] = new
            else:
                del acc[key]
        out = AbstractExpr.__new__(AbstractExpr)
        out._terms = acc
        return out

    def neg(self) -> "AbstractExpr":
        return self.scale(-1)

    def sub(self, other: "AbstractExpr") -> "AbstractExpr":
        return self.add(other.neg())

    def scale(self, factor) -> "AbstractExpr":
        factor = Fraction(factor)
        if not factor:
            return AbstractExpr()
        out = AbstractExpr.__new__(AbstractExpr)
        out._terms = {key: coeff * factor for key, coeff in self._terms.items()}
        return out

    def shift_m(self, delta: int) -> "AbstractExpr":
        """Multiply by the central factor m^delta."""
        out = AbstractExpr.__new__(AbstractExpr)
        out._terms = {
            (b, w, k + delta): coeff for (b, w, k), coeff in self._terms.items()
        }
        return out

    # -- multiplicative structure ---------------------------------------

    def mul(self, other: "AbstractExpr", budget: "Budget | None" = None) -> "AbstractExpr":
        """Product with beta normalized leftward.

        Moving beta^b2 of a right term across the left word w1 costs the
        sign (-1)^(b2 * oCount(w1)).  Under a budget, any pair whose
        concatenated word violates (maxWordLen, maxECount) is skipped;
        letters only accumulate under multiplication, so this equals
        filtering after full distribution and kept coefficients are exact.
        """
        if not self._terms or not other._terms:
            return AbstractExpr()
        max_len = budget.max_word_len if budget is not None else None
        max_e = budget.max_e_count if budget is not None else None
        acc: dict[TermKey, Fraction] = {}
        right = other._terms.items()
        for (b1, w1, k1), c1 in self._terms.items():
            odd1 = o_count(w1) & 1
            e1 = len(w1) - o_count(w1)
            for (b2, w2, k2), c2 in right:
                if max_len is not None:
                    if len(w1) + len(w2) > max_len:
                        continue
                    if e1 + (len(w2) - o_count(w2)) > max_e:
                        continue
                coeff = c1 * c2
                if b2 and odd1:
                    coeff = -coeff
                key = ((b1 + b2) & 1, w1 + w2, k1 + k2)
                new = acc.get(key, _ZERO_FRACTION) + coeff
                if new:
                    acc[key] = new
                else:
                    del acc[key]
        out = AbstractExpr.__new__(AbstractExpr)
        out._terms = acc
        return out

    def adjoint(self) -> "AbstractExpr":
        """Hermitian adjoint: E, O, beta, m self-adjoint, words reverse.

        (beta^b m^k w)^+ = m^k reverse(w) beta^b, and normalizing beta
        back to the left costs (-1)^(b * oCount(w)).
        """
        acc: dict[TermKey, Fraction] = {}
        for (b, w, k), coeff in self._terms.items():
            if b and (o_count(w) & 1):
                coeff = -coeff
            acc[(b, w[::-1], k)] = coeff
        out = AbstractExpr.__new__(AbstractExpr)
        out._terms = acc
        return out

    def commutator(self, other: "AbstractExpr", budget: "Budget | None" = None) -> "AbstractExpr":
        return self.mul(other, budget).sub(other.mul(self, budget))

    def anticommutator(self, other: "AbstractExpr", budget: "Budget | None" = None) -> "AbstractExpr":
        return self.mul(other, budget).add(other.mul(self, budget))

    def filtered(self, budget: "Budget") -> "AbstractExpr":
        """Drop terms whose word violates the budget."""
        acc = {
            key: coeff
            for key, coeff in self._terms.items()
            if len(key[1]) <= budget.max_word_len
            and len(key[1]) - o_count(key[1]) <= budget.max_e_count
        }
        out = AbstractExpr.__new__(AbstractExpr)
        out._terms = acc
        return out

    def classify(self) -> dict[tuple[int, int], "AbstractExpr"]:
        """Partition terms by (eCount, oCount); the union reconstitutes self."""
        buckets: dict[tuple[int, int], dict[TermKey, Fraction]] = {}
        for key, coeff in self._terms.items():
            word = key[1]
            oc = o_count(word)
            buckets.setdefault((len(word) - oc, oc), {})[key] = coeff
        out = {}
        for klass, terms in buckets.items():
            expr = AbstractExpr.__new__(AbstractExpr)
            expr._terms = terms
            out[klass] = expr
        return out


_ZERO_FRACTION = Fraction(0)

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
