"""Bracket basis, exact projection, and class-by-class diff reports.

Even word-level expansions (the outputs of the direct and the iterative
engines) are compared per letter class (e, o).  To say anything useful
about a difference we express it in bracket monomials: nested
commutators, anticommutators, and products built from E, O, and powers
of O.  Every monomial carries the nominal hbar order assigned by the
grading walker; certifying that a difference lies in the span of
order >= 2 monomials is exactly the statement that the two transforms
agree through first order.

Construction.  Candidates are generated deterministically: brackets of
atoms, brackets of brackets, deeper atom nestings, two- and three-factor
products, and one more bracket layer around the two-factor products.
Each candidate carries its tree, text, nominal order and integer word
vector.  It lies in a single class (e, o), and the class of a bracket or
product is the sum of its operands' classes, so the class test decides
the budget for every term pair at once: a pair that fits is multiplied
whole, by concatenating words and multiplying integers.  Only the
curated spellings go through `expand`, once each.  Candidates that
vanish are dropped; parallel candidates collapse onto one direction,
keyed by the word vector over its gcd with a positive lead, and one
representative (the highest-order label wins, so the span per order
cutoff is never understated).  Every surviving direction becomes a basis
element: the collection is deliberately redundant, because different
bracket spellings of the same content are exactly what the agreement
narrative trades in.  Asked for some classes, `build_basis` skips every
pair whose class lies outside their sub-class closure; since classes add
and no direction crosses a class, each class it keeps gets exactly the
elements of the full basis.  Building the basis does no elimination.

Elimination.  One exact sparse kernel, `_Echelon`, does every
elimination in this module, fraction-free (integer-preserving, after
E. H. Bareiss, Math. Comp. 22, 1968).  Every element's word vector is
integral, so rows are primitive integer vectors: reducing by a row
multiplies by the row's pivot entry, subtracts, and divides by the gcd.
The pivot is the least word left, so each row is a multiple of the row a
rational elimination keeps and every choice is the same.  A rational
target is scaled to integers once, and its remainder and weights are
divided back exactly at the end.  Each class gets one echelon, built the
first time a caller asks for that class, with its elements inserted from
high nominal order to low.  It tracks no combinations: certification
needs none.  `BracketBasis.dependencies` builds a tracked echelon when
it is read, and records each element already spanned by those before it
with its exact relation, e.g. acomm(O, comm(comm(O, E), E)) =
comm(comm(pow(O, 2), E), E) - 2 pow(comm(O, E), 2).

Projection.  A single-class operator is split into (beta, m) strata;
each stratum is a rational vector over the class words.  Certification
is one reduction per stratum against the class echelon.  Because its
rows were inserted from high order to low, the label of the last row
the reduction uses carries a nonzero weight and no later label carries
any, so that label's order is the stratum's certificate, and the lowest
over the strata is the certified minimum order.  Projection spells a
stratum in as few elements as it can, preferring low order first, then
the listing order.  Whatever cannot be expressed is returned verbatim
as a residual, and reconstruction (entries plus residual) is exact by
construction.  Because the columns are redundant, reports project at
the certified minimum order, which keeps low-order spellings out of a
difference that certifies higher.

Beta and mass bookkeeping: basis expansions are pure words.  The beta
and m content of the projected operator is uniform within a stratum, so
it is factored out and reported per combination entry rather than being
folded into the basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from fwforge.lang import format_term, format_tree, parse_expr, term_strings
from fwforge.ncalg import (
    AbstractExpr,
    Acomm,
    BracketExpr,
    Budget,
    Comm,
    Gen,
    PowN,
    Prod,
    expand,
    parity_and_order,
)

__all__ = [
    "BasisElement",
    "BracketBasis",
    "Dependency",
    "Projection",
    "ProjectionEntry",
    "ClassDiff",
    "DiffReport",
    "build_basis",
    "project",
    "min_hbar_order",
    "diff_report",
    "explain",
]


@dataclass(frozen=True)
class BasisElement:
    """One admitted bracket monomial."""

    text: str
    tree: BracketExpr
    order: int
    e_count: int
    o_count: int
    expansion: AbstractExpr

    @property
    def klass(self) -> tuple[int, int]:
        return (self.e_count, self.o_count)

    @cached_property
    def word_vector(self) -> dict[str, int]:
        """The expansion's word coefficients, which are integers."""
        return _integer_words(self.expansion, self.text)


def _integer_words(expansion: AbstractExpr, text: str) -> dict[str, int]:
    """The word coefficients of a pure-word expansion, which are integers:
    brackets and products of letters and powers of O carry no fractions."""
    vector = {}
    for (_, word, _), coeff in expansion.terms():
        if coeff.denominator != 1:
            raise ValueError(f"{text} has the non-integral coefficient {coeff}")
        vector[word] = coeff.numerator
    return vector


@dataclass(frozen=True)
class Dependency:
    """A rejected candidate with its exact expression in admitted elements."""

    text: str
    tree: BracketExpr
    order: int
    e_count: int
    o_count: int
    members: tuple[tuple[str, Fraction], ...]


@dataclass(frozen=True)
class ProjectionEntry:
    element: BasisElement
    weight: Fraction
    beta_exp: int
    m_exp: int

    @property
    def bracket(self) -> str:
        """The element text, with the stratum's beta factor when it has one."""
        return ("beta * " if self.beta_exp else "") + self.element.text


@dataclass(frozen=True)
class Projection:
    """Exact decomposition piece = sum of weighted elements + residual."""

    entries: tuple[ProjectionEntry, ...]
    residual: AbstractExpr

    def reconstruct(self) -> AbstractExpr:
        total = self.residual
        for entry in self.entries:
            dressed = AbstractExpr.from_terms(
                ((entry.beta_exp, word, m_exp + entry.m_exp), coeff * entry.weight)
                for (_, word, m_exp), coeff in entry.element.expansion.terms()
            )
            total = total.add(dressed)
        return total


# Candidate scan rank: commutators first, then powers and products,
# then anticommutators, mirroring how the narrative prefers to name
# a class (bracket form before padded form).
def _kind_rank(tree: BracketExpr) -> int:
    if isinstance(tree, Comm):
        return 0
    if isinstance(tree, (PowN, Prod)):
        return 1
    if isinstance(tree, Acomm):
        return 2
    return 3


def _integral(vector: dict[str, Fraction]) -> tuple[dict[str, int], int]:
    """(d * vector, d), with d the least common denominator of the coefficients."""
    denominator = lcm(*(coeff.denominator for coeff in vector.values()))
    scaled = {
        word: coeff.numerator * (denominator // coeff.denominator)
        for word, coeff in vector.items()
    }
    return scaled, denominator


def _combine(p: int, target: dict, q: int, source: dict) -> dict:
    """p * target + q * source, without the entries that cancel."""
    out = dict(target) if p == 1 else {key: p * value for key, value in target.items()}
    for key, value in source.items():
        total = out.get(key, 0) + q * value
        if total:
            out[key] = total
        else:
            del out[key]
    return out


def _primitive(vector: dict, combo: dict | None) -> tuple[dict, dict | None]:
    """Divide the vector (and its combo) by the gcd of all their entries."""
    content = gcd(*vector.values(), *(combo.values() if combo else ()))
    if content <= 1:
        return vector, combo
    vector = {key: value // content for key, value in vector.items()}
    if combo:
        combo = {key: value // content for key, value in combo.items()}
    return vector, combo


# Stands for the vector being reduced inside its own combo.
_TARGET = object()


class _Echelon:
    """Fraction-free sparse row echelon over integer word vectors.

    Rows are kept in insertion order as (pivot word, vector, label, combo),
    where the pivot is the least word left after reduction and the vector
    is primitive.  Reducing by a row is v <- p*v - a*row, with p the row's
    pivot entry and a the vector's, both divided by their gcd; the result
    is then divided by its content.  Each row is reduced against every
    earlier one, so one pass in order clears all pivots.  Every row is a
    nonzero multiple of the row a rational elimination keeps, so the
    pivots and every independence decision are the same as over the
    rationals.

    A tracked echelon also keeps each row's combo, its integer
    combination of the inserted labels: vector == sum(combo[label] *
    inserted vector of label), and its gcd is taken with the vector's.  An
    untracked echelon keeps none: certification only needs to know the
    last row a reduction uses.
    """

    def __init__(self, tracked: bool = False):
        self._tracked = tracked
        self._rows: list[tuple[str, dict[str, int], object, dict | None]] = []

    def _eliminate(self, vector: dict[str, int], combo: dict | None):
        """(remainder, combo, label of the last row used) for an integer vector."""
        vector, combo = _primitive(vector, combo)
        last = None
        for pivot, row, label, row_combo in self._rows:
            factor = vector.get(pivot)
            if not factor:
                continue
            lead = row[pivot]
            common = gcd(factor, lead)
            lead, factor = lead // common, factor // common
            vector = _combine(lead, vector, -factor, row)
            if combo is not None:
                combo = _combine(lead, combo, -factor, row_combo)
            vector, combo = _primitive(vector, combo)
            last = label
            if not vector:
                break
        return vector, combo, last

    def insert(self, label, vector: dict[str, int]) -> dict | None:
        """Add a labelled vector: None when it is independent of the rows so
        far, else its exact weights over the earlier labels (no row added);
        an untracked echelon gives {} for those weights."""
        combo = {label: 1} if self._tracked else None
        remainder, combo, _ = self._eliminate(vector, combo)
        if remainder:
            self._rows.append((min(remainder), remainder, label, combo))
            return None
        if combo is None:
            return {}
        own = combo.pop(label)
        return {name: Fraction(-value, own) for name, value in combo.items()}

    def reduce(self, vector: dict[str, Fraction]) -> tuple[dict[str, Fraction], dict]:
        """(remainder, weights) with vector == remainder + sum(weights[l] * vector of l).

        Tracked echelons only.  The vector is scaled to integers once; its
        scale rides in the combo, so the division back is exact.
        """
        scaled, denominator = _integral(vector)
        remainder, combo, _ = self._eliminate(scaled, {_TARGET: denominator})
        scale = combo.pop(_TARGET)
        return (
            {word: Fraction(value, scale) for word, value in remainder.items()},
            {name: Fraction(-value, scale) for name, value in combo.items()},
        )

    def last_used(self, vector: dict[str, int]):
        """The label of the last row that reducing the vector uses, or None
        when a remainder is left."""
        remainder, _, last = self._eliminate(vector, None)
        return None if remainder else last


class BracketBasis:
    """Ordered admitted elements; per-class echelons are built on first use.

    `classes` are the classes the basis was built for (None: every class
    in the budget).  Asking about a class outside their sub-class closure
    raises ValueError instead of reporting an empty span.
    """

    def __init__(
        self,
        budget: Budget,
        elements: Sequence[BasisElement],
        classes: Iterable[tuple[int, int]] | None = None,
    ):
        self.budget = budget
        self.elements = tuple(elements)
        self._built_for = None if classes is None else tuple(sorted(set(classes)))
        self._by_class: dict[tuple[int, int], list[BasisElement]] = {}
        self._by_text: dict[str, BasisElement] = {}
        self._echelons: dict[tuple[int, int], _Echelon] = {}
        for element in self.elements:
            self._by_class.setdefault(element.klass, []).append(element)
            self._by_text[element.text] = element

    def _require(self, klass: tuple[int, int]) -> None:
        if not _in_closure(klass, self._built_for):
            raise ValueError(
                f"class {klass} lies outside the classes {list(self._built_for)} "
                "this basis was built for"
            )

    def _insertion_order(self, klass: tuple[int, int]) -> list[BasisElement]:
        """High order to low, then commutators before powers before
        anticommutators, then text."""
        return sorted(
            self.class_elements(*klass),
            key=lambda el: (-el.order, _kind_rank(el.tree), el.text),
        )

    def echelon(self, klass: tuple[int, int]) -> _Echelon:
        """The class echelon (untracked), built on first use."""
        self._require(klass)
        echelon = self._echelons.get(klass)
        if echelon is None:
            echelon = self._echelons[klass] = _Echelon()
            for element in self._insertion_order(klass):
                echelon.insert(element.text, element.word_vector)
        return echelon

    @cached_property
    def dependencies(self) -> tuple[Dependency, ...]:
        """Every element spanned by the higher-order ones of its class, with
        its exact relation, from a tracked echelon per class."""
        found = []
        for klass in self.classes():
            echelon = _Echelon(tracked=True)
            for element in self._insertion_order(klass):
                members = echelon.insert(element.text, element.word_vector)
                if members is not None:
                    found.append(
                        Dependency(
                            text=element.text,
                            tree=element.tree,
                            order=element.order,
                            e_count=element.e_count,
                            o_count=element.o_count,
                            members=tuple(sorted(members.items())),
                        )
                    )
        found.sort(key=lambda dep: (dep.order, (dep.e_count, dep.o_count), dep.text))
        return tuple(found)

    def class_elements(self, e_count: int, o_count: int) -> tuple[BasisElement, ...]:
        self._require((e_count, o_count))
        return tuple(self._by_class.get((e_count, o_count), ()))

    def element(self, text: str) -> BasisElement:
        return self._by_text[text]

    def classes(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._by_class))

    def __len__(self) -> int:
        return len(self.elements)


# Heavy letters first so the first-offered orientation of a fresh
# direction reads like the narrative ([O, E], not [E, O]).
def _atoms() -> tuple[BracketExpr, ...]:
    o = Gen("O")
    return (PowN(o, 6), PowN(o, 4), PowN(o, 2), o, Gen("E"))


# Preferred spellings for directions the narrative names explicitly.  A
# candidate's text is format_tree of its tree, and no spelling here holds
# a product, so the text alone decides whether a candidate is curated.
_CURATED_TEXTS = frozenset(
    {
        "comm(O, E)",
        "comm(pow(O, 2), E)",
        "comm(O, comm(O, E))",
        "comm(comm(O, E), E)",
        "comm(comm(pow(O, 2), E), E)",
        "comm(pow(O, 2), comm(O, E))",
        "comm(pow(O, 2), comm(pow(O, 2), E))",
        "pow(comm(O, E), 2)",
        "pow(comm(pow(O, 2), E), 2)",
        "acomm(O, comm(comm(O, E), E))",
        "acomm(pow(O, 2), comm(O, comm(O, E)))",
        "acomm(pow(O, 4), comm(O, comm(O, E)))",
        "acomm(pow(O, 2), comm(comm(pow(O, 2), E), E))",
        "acomm(pow(O, 2), pow(comm(O, E), 2))",
        "acomm(pow(O, 2), comm(pow(O, 2), comm(pow(O, 2), E)))",
        "comm(pow(O, 2), comm(pow(O, 2), comm(O, comm(O, E))))",
        "comm(O, comm(O, comm(comm(pow(O, 2), E), E)))",
        "comm(comm(O, comm(O, comm(pow(O, 2), E))), E)",
        "comm(pow(O, 2), comm(O, comm(comm(O, E), E)))",
        "comm(O, comm(comm(comm(O, E), E), E))",
    }
)


def _word_product(left: dict[str, int], right: dict[str, int]) -> dict[str, int]:
    """Product of two integer word vectors, without the words that cancel."""
    out: dict[str, int] = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            word = w1 + w2
            out[word] = out.get(word, 0) + c1 * c2
    return {word: coeff for word, coeff in out.items() if coeff}


def _word_brackets(
    left: dict[str, int], right: dict[str, int]
) -> tuple[dict[str, int], dict[str, int]]:
    """(commutator, anticommutator) of two integer word vectors."""
    forward = _word_product(left, right)
    backward = _word_product(right, left)
    return _combine(1, forward, -1, backward), _combine(1, forward, 1, backward)


@dataclass(slots=True)
class _Candidate:
    """A bracket tree with its text, grading order, class and integer
    word vector; the vector is the tree's untruncated expansion."""

    tree: BracketExpr
    text: str
    order: int
    klass: tuple[int, int]
    vector: dict[str, int]

    def beats(self, held: "_Candidate") -> bool:
        """Higher order wins, then a curated spelling, then shorter text,
        then the text that sorts first."""
        ours, theirs = self._rank(), held._rank()
        return ours > theirs or (ours == theirs and self.text < held.text)

    def _rank(self) -> tuple[int, bool, int]:
        return (self.order, self.text in _CURATED_TEXTS, -len(self.text))


def _direction(vector: dict[str, int]) -> tuple:
    """The word-ordered vector over its gcd, signed so the lead is positive:
    parallel vectors, and only they, share it."""
    words = sorted(vector)
    content = gcd(*vector.values())
    if vector[words[0]] < 0:
        content = -content
    return tuple((word, vector[word] // content) for word in words)


class _DirectionTable:
    """Candidates grouped by expansion direction (parallel vectors).

    Each direction keeps its best candidate; a later candidate replaces it
    only when it beats the one held.
    """

    def __init__(self):
        self._best: dict[tuple, _Candidate] = {}

    def offer(self, candidate: _Candidate) -> bool:
        """Record a nonzero candidate; True when its direction is new."""
        key = _direction(candidate.vector)
        held = self._best.get(key)
        if held is None:
            self._best[key] = candidate
            return True
        if candidate.beats(held):
            self._best[key] = candidate
        return False

    def representatives(self) -> Iterator[_Candidate]:
        return iter(self._best.values())


def _bracket_candidates(
    table: _DirectionTable,
    lefts: Sequence[_Candidate],
    rights: Sequence[_Candidate],
    allowed: frozenset[tuple[int, int]],
) -> list[_Candidate]:
    """Offer comm/acomm of every pair whose class is allowed; return the
    new directions."""
    fresh: list[_Candidate] = []
    seen_acomm: set[tuple[int, int]] = set()
    for i, left in enumerate(lefts):
        left_e, left_o = left.klass
        for j, right in enumerate(rights):
            klass = (left_e + right.klass[0], left_o + right.klass[1])
            if klass not in allowed or left.tree == right.tree:
                continue
            comm, acomm = _word_brackets(left.vector, right.vector)
            # A commutator of two odd operators costs no hbar.
            both_odd = left_o % 2 and right.klass[1] % 2
            order = left.order + right.order
            if comm:
                new = _Candidate(
                    Comm(left.tree, right.tree),
                    f"comm({left.text}, {right.text})",
                    order if both_odd else order + 1,
                    klass,
                    comm,
                )
                if table.offer(new):
                    fresh.append(new)
            pair = (min(i, j), max(i, j)) if lefts is rights else (i, j)
            if pair in seen_acomm:
                continue
            seen_acomm.add(pair)
            if acomm:
                new = _Candidate(
                    Acomm(left.tree, right.tree),
                    f"acomm({left.text}, {right.text})",
                    order,
                    klass,
                    acomm,
                )
                if table.offer(new):
                    fresh.append(new)
    return fresh


def _product(left: _Candidate, right: _Candidate, klass: tuple[int, int]) -> _Candidate:
    return _Candidate(
        Prod((left.tree, right.tree)),
        f"{left.text} * {right.text}",
        left.order + right.order,
        klass,
        _word_product(left.vector, right.vector),
    )


def _in_closure(
    klass: tuple[int, int], classes: Sequence[tuple[int, int]] | None
) -> bool:
    """True when some wanted class holds at least klass's E and O counts
    (every class when classes is None)."""
    e_count, o_count = klass
    return classes is None or any(e_count <= e and o_count <= o for e, o in classes)


def build_basis(
    budget: Budget, *, classes: Iterable[tuple[int, int]] | None = None
) -> BracketBasis:
    """Deterministic bracket basis for the classes inside the budget.

    With `classes`, only the sub-classes of those (every (e', o') with
    e' <= e and o' <= o for some wanted (e, o)) are built; each of them
    gets exactly the elements the full basis has.
    """
    if classes is not None:
        classes = tuple(sorted(set(classes)))
    allowed = frozenset(
        (e_count, o_count)
        for e_count in range(budget.max_e_count + 1)
        for o_count in range(budget.max_word_len - e_count + 1)
        if _in_closure((e_count, o_count), classes)
    )

    table = _DirectionTable()
    # Claim the narrative spellings first so they become the
    # representatives of their directions.
    curated_candidates: list[_Candidate] = []
    for text in sorted(_CURATED_TEXTS):
        tree = parse_expr(text)
        expansion = expand(tree, budget)
        if expansion.is_zero():
            continue
        vector = _integer_words(expansion, text)
        word = next(iter(vector))
        klass = (word.count("E"), word.count("O"))
        if klass not in allowed:
            continue
        candidate = _Candidate(tree, text, parity_and_order(tree)[1], klass, vector)
        table.offer(candidate)
        curated_candidates.append(candidate)
    atom_candidates: list[_Candidate] = []
    for atom in _atoms():
        word = atom.letter if isinstance(atom, Gen) else "O" * atom.n
        klass = (word.count("E"), word.count("O"))
        if klass not in allowed:
            continue
        candidate = _Candidate(atom, format_tree(atom), 0, klass, {word: 1})
        table.offer(candidate)
        atom_candidates.append(candidate)

    # Round 1: brackets of atoms.  Round 2: brackets over everything so
    # far.  Rounds 3..5: one more atom layer each (padding and nesting).
    # The curated spellings ride along: they claimed their directions
    # above, so the new-direction rounds would otherwise never feed the
    # narrative's own commutators back into deeper nestings or products.
    round1 = _bracket_candidates(table, atom_candidates, atom_candidates, allowed)
    pool = atom_candidates + round1 + curated_candidates
    round2 = _bracket_candidates(table, pool, pool, allowed)
    layer = round1 + round2 + curated_candidates
    for _ in range(3):
        grown = _bracket_candidates(table, atom_candidates, layer, allowed)
        grown += _bracket_candidates(table, layer, atom_candidates, allowed)
        layer = grown

    # Two-factor products of brackets (both factors carry order >= 1),
    # then one bracket layer around the products for padded squares.
    # Products of nonzero vectors are nonzero: the free algebra has no
    # zero divisors.
    bracket_pool = [
        c
        for c in (round1 + round2 + curated_candidates)
        if not isinstance(c.tree, PowN)
    ]
    products: list[_Candidate] = []
    for left in bracket_pool:
        left_e, left_o = left.klass
        for right in bracket_pool:
            klass = (left_e + right.klass[0], left_o + right.klass[1])
            if klass not in allowed:
                continue
            if left.tree == right.tree:
                product = _Candidate(
                    PowN(left.tree, 2),
                    f"pow({left.text}, 2)",
                    2 * left.order,
                    klass,
                    _word_product(left.vector, left.vector),
                )
            else:
                product = _product(left, right, klass)
            table.offer(product)
            products.append(product)
    _bracket_candidates(table, atom_candidates, products, allowed)
    _bracket_candidates(table, products, atom_candidates, allowed)

    # Three-factor products: a two-factor product times one more small
    # bracket, on either side.  Needed so high-letter-count classes keep
    # full coverage at every grading order.
    small = [c for c in bracket_pool if sum(c.klass) <= 3]
    for middle in products:
        mid_e, mid_o = middle.klass
        for extra in small:
            klass = (mid_e + extra.klass[0], mid_o + extra.klass[1])
            if klass not in allowed:
                continue
            table.offer(_product(middle, extra, klass))
            table.offer(_product(extra, middle, klass))

    # Every representative becomes an element: the basis is deliberately
    # overcomplete (see the module docstring).
    elements = []
    for best in table.representatives():
        element = BasisElement(
            text=best.text,
            tree=best.tree,
            order=best.order,
            e_count=best.klass[0],
            o_count=best.klass[1],
            expansion=AbstractExpr(
                {(0, word, 0): coeff for word, coeff in best.vector.items()}
            ),
        )
        # Already known: spare the cached property its walk over the terms.
        element.__dict__["word_vector"] = dict(sorted(best.vector.items()))
        elements.append(element)
    elements.sort(key=lambda el: (el.order, el.klass, el.text))
    return BracketBasis(budget, elements, classes=classes)


def _strata(piece: AbstractExpr) -> dict[tuple[int, int], dict[str, Fraction]]:
    strata: dict[tuple[int, int], dict[str, Fraction]] = {}
    for (beta_exp, word, m_exp), coeff in piece.terms():
        strata.setdefault((beta_exp, m_exp), {})[word] = coeff
    return strata


def _reduce_against(
    vector: dict[str, Fraction],
    columns: Sequence[BasisElement],
) -> tuple[dict[str, Fraction], dict[int, Fraction]]:
    """Reduce `vector` against `columns` in order; return remainder, weights."""
    echelon = _Echelon(tracked=True)
    for index, element in enumerate(columns):
        echelon.insert(index, element.word_vector)
    return echelon.reduce(vector)


_SPARSE_LIMIT = 3


def _sparse_solve(
    vector: dict[str, Fraction],
    columns: Sequence[BasisElement],
) -> dict[int, Fraction] | None:
    """Smallest-support exact solution, if one uses <= _SPARSE_LIMIT columns.

    Subsets are tried smallest first, in the lexicographic order induced
    by the column preference, so ties resolve toward lower order and
    earlier listing.  Linearly dependent subsets are skipped: their span
    equals that of a smaller subset already tried.  Each subset that
    covers the target's words is screened by an untracked reduction of
    the target, scaled to integers once; only the subset that passes is
    solved for its exact weights.
    """
    target, _ = _integral(vector)
    # A column's mask holds the target words it has; a subset covers the
    # target when the masks of its columns fill `full`.
    bits = {word: 1 << index for index, word in enumerate(target)}
    full = (1 << len(target)) - 1
    col_vectors = [element.word_vector for element in columns]
    col_masks = [sum(bits.get(word, 0) for word in vec) for vec in col_vectors]
    budget = 300_000
    for size in range(1, _SPARSE_LIMIT + 1):
        if size > len(columns):
            break
        for subset in combinations(range(len(columns)), size):
            budget -= 1
            if budget < 0:
                return None
            covered = 0
            for index in subset:
                covered |= col_masks[index]
            if covered != full:
                continue
            screen = _Echelon()
            if any(screen.insert(index, col_vectors[index]) is not None for index in subset):
                continue
            if screen.last_used(target) is None:
                continue
            _, weights = _reduce_against(vector, [columns[index] for index in subset])
            return {subset[position]: weight for position, weight in weights.items()}
    return None


def project(
    piece: AbstractExpr,
    basis: BracketBasis,
    min_order: int | None = None,
) -> Projection:
    """Express a single-class operator over the basis elements.

    The columns are restricted to grading order >= min_order; when
    min_order is omitted, the piece's own certified minimum order is
    used, so the result is spelled in the vocabulary of the order the
    piece actually carries rather than padded low-order spellings.

    The solve aims for the fewest elements: subsets of up to three
    columns are tried exhaustively, because the narrative names a
    difference with as few brackets as it can.  Ties resolve toward
    lower order, then toward the narrative's own display vocabulary,
    then earlier listing.  When no small support exists, a greedy exact
    reduction over the preference-ordered columns decides, and whatever
    the span cannot reach is returned verbatim as residual.  Entries
    plus residual always reconstruct the input exactly.
    """
    if piece.is_zero():
        return Projection(entries=(), residual=AbstractExpr.zero())
    classes = piece.classify()
    if len(classes) != 1:
        raise ValueError(f"projection wants a single class, got {sorted(classes)}")
    (klass,) = classes
    if min_order is None:
        certified = min_hbar_order(piece, basis)
        min_order = 0 if certified is None else certified
    columns = sorted(
        (
            element
            for element in basis.class_elements(*klass)
            if element.order >= min_order
        ),
        key=lambda el: (
            el.order,
            el.text not in _CURATED_TEXTS,
            _kind_rank(el.tree),
            el.text,
        ),
    )

    entries: list[ProjectionEntry] = []
    residual_terms: dict[tuple[int, str, int], Fraction] = {}
    for (beta_exp, m_exp), vector in sorted(_strata(piece).items()):
        weights = _sparse_solve(vector, columns)
        if weights is not None:
            remainder: dict[str, Fraction] = {}
        else:
            remainder, weights = _reduce_against(vector, columns)
        for index in sorted(weights):
            entries.append(
                ProjectionEntry(
                    element=columns[index],
                    weight=weights[index],
                    beta_exp=beta_exp,
                    m_exp=m_exp,
                )
            )
        for word, coeff in remainder.items():
            residual_terms[(beta_exp, word, m_exp)] = coeff
    return Projection(
        entries=tuple(entries),
        residual=AbstractExpr.from_terms(residual_terms.items()),
    )


def min_hbar_order(piece: AbstractExpr, basis: BracketBasis) -> int | None:
    """Largest h with the whole piece inside span(elements of order >= h).

    One untracked reduction per stratum against the class echelon.  Its
    rows went in from high order to low, and each row is its label's
    vector plus earlier labels only.  So the label of the last row the
    reduction uses gets that row's nonzero factor as its weight, no later
    label gets any, and no earlier label has a lower order: the stratum's
    certificate is that label's order.  The weights themselves are never
    formed.  None when some stratum is not even in the full admitted span.
    """
    if piece.is_zero():
        return None
    classes = piece.classify()
    if len(classes) != 1:
        raise ValueError(f"certification wants a single class, got {sorted(classes)}")
    (klass,) = classes
    echelon = basis.echelon(klass)
    orders: list[int] = []
    for vector in _strata(piece).values():
        last = echelon.last_used(_integral(vector)[0])
        if last is None:
            return None
        orders.append(basis.element(last).order)
    return min(orders)


@dataclass(frozen=True)
class ClassDiff:
    e_count: int
    o_count: int
    status: str
    hbar_order_min: int | None
    projection: Projection | None

    def to_json_dict(self) -> dict:
        basis_terms = []
        residual: list[str] = []
        if self.projection is not None:
            basis_terms = [
                {
                    "bracket_text": entry.bracket,
                    "coeff": str(entry.weight),
                    "m_exp": entry.m_exp,
                }
                for entry in self.projection.entries
            ]
            residual = term_strings(self.projection.residual)
        return {
            "e": self.e_count,
            "o": self.o_count,
            "status": self.status,
            "hbar_order_min": self.hbar_order_min,
            "basis_terms": basis_terms,
            "residual": residual,
        }


@dataclass(frozen=True)
class DiffReport:
    budget: Budget
    classes: tuple[ClassDiff, ...]

    @property
    def clean(self) -> bool:
        """True when every differing class certifies at order >= 2."""
        return all(
            row.status == "identical"
            or (row.hbar_order_min is not None and row.hbar_order_min >= 2)
            for row in self.classes
        )

    def to_json_dict(self) -> dict:
        return {
            "budget": {
                "max_word_len": self.budget.max_word_len,
                "max_e_count": self.budget.max_e_count,
            },
            "classes": [row.to_json_dict() for row in self.classes],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        lines = [
            f"class comparison at word length <= {self.budget.max_word_len}, "
            f"E count <= {self.budget.max_e_count}",
            "",
            f"{'class':>8}  {'status':<10} {'min order':<10} detail",
        ]
        for row in self.classes:
            label = f"({row.e_count},{row.o_count})"
            order_text = "-" if row.hbar_order_min is None else str(row.hbar_order_min)
            details: list[str] = []
            if row.projection is not None:
                for entry in row.projection.entries:
                    weight = entry.weight
                    sign = "-" if weight < 0 else "+"
                    body = f"{sign}{abs(weight)}"
                    if entry.m_exp:
                        body += f" m^{entry.m_exp}"
                    if entry.beta_exp:
                        body += " beta"
                    details.append(f"{body} {entry.element.text}")
                for (beta_exp, word, m_exp), coeff in row.projection.residual.terms():
                    rendered = format_term(beta_exp, word, m_exp, coeff)
                    sign = "-" if coeff < 0 else "+"
                    details.append(f"residual {sign}{rendered}")
            if not details:
                details = ["-"]
            lines.append(
                f"{label:>8}  {row.status:<10} {order_text:<10} {details[0]}"
            )
            for extra in details[1:]:
                lines.append(f"{'':>8}  {'':<10} {'':<10} {extra}")
        return "\n".join(lines)


_ZERO = AbstractExpr.zero()


def diff_report(
    h_first: AbstractExpr,
    h_second: AbstractExpr,
    budget: Budget,
    basis: BracketBasis | None = None,
) -> DiffReport:
    """Per-class comparison of two even expansions (first minus second).

    Without a basis, one is built for the differing classes only.
    """
    first_parts = h_first.classify()
    second_parts = h_second.classify()
    deltas = {
        klass: first_parts.get(klass, _ZERO).sub(second_parts.get(klass, _ZERO))
        for klass in sorted(set(first_parts) | set(second_parts))
    }
    if basis is None:
        differing = [klass for klass, delta in deltas.items() if not delta.is_zero()]
        basis = build_basis(budget, classes=differing)
    rows = []
    for (e_count, o_count), delta in deltas.items():
        if delta.is_zero():
            rows.append(
                ClassDiff(
                    e_count=e_count,
                    o_count=o_count,
                    status="identical",
                    hbar_order_min=None,
                    projection=None,
                )
            )
            continue
        certified = min_hbar_order(delta, basis)
        # Present the difference in the vocabulary of its own order:
        # projecting with the certified cutoff keeps low-order spellings
        # of redundant directions out of the report.
        rows.append(
            ClassDiff(
                e_count=e_count,
                o_count=o_count,
                status="differs",
                hbar_order_min=certified,
                projection=project(delta, basis, min_order=certified),
            )
        )
    return DiffReport(budget=budget, classes=tuple(rows))


def explain(
    diff: AbstractExpr, budget: Budget, min_order: int
) -> tuple[str, list[dict]]:
    """Spell every class of a difference in brackets of order >= min_order.

    The basis is built for the differing classes only.  Returns "pass"
    when every class is explained and "fail" otherwise, with one row per
    class, smallest class first: its e and o counts, its status
    ("explained" or "unexplained"), the weighted brackets as
    `delta_brackets`, and, when the brackets leave a residual, its terms
    as `unexplained`.
    """
    status = "pass"
    rows = []
    pieces = diff.classify()
    basis = build_basis(budget, classes=pieces)
    for (e_count, o_count), piece in sorted(pieces.items()):
        projection = project(piece, basis, min_order=min_order)
        explained = projection.residual.is_zero()
        row = {
            "e": e_count,
            "o": o_count,
            "status": "explained" if explained else "unexplained",
            "delta_brackets": [
                {"bracket": entry.bracket, "weight": str(entry.weight), "m_exp": entry.m_exp}
                for entry in projection.entries
            ],
        }
        if not explained:
            row["unexplained"] = term_strings(projection.residual)
            status = "fail"
        rows.append(row)
    return status, rows
