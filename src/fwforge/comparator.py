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
Each candidate is its text, its kind (commutator, power or product,
anticommutator, letter), its nominal order and its integer word vector;
no bracket tree is built.  It lies in a single class (e, o), and the
class of a bracket or product is the sum of its operands' classes, so
the class test decides the budget for every term pair at once: a pair
that fits is multiplied whole, by concatenating words and multiplying
integers.  Only the curated spellings are parsed and go through
`expand`, once each.  Candidates that vanish are dropped; parallel
candidates collapse onto one direction, keyed by the word vector over
its gcd with a positive lead, and one representative (the highest-order
label wins, so the span per order cutoff is never understated).  Every
surviving direction becomes a basis element: the collection is
deliberately redundant, because different bracket spellings of the same
content are exactly what the agreement narrative trades in.  Asked for
some classes, `build_basis` skips every pair whose class lies outside
their sub-class closure; since classes add and no direction crosses a
class, each class it keeps gets exactly the elements of the full basis.
Building the basis does no elimination.

Elimination.  One exact kernel, `_eliminate`, does every elimination in
this module, fraction-free (integer-preserving, after E. H. Bareiss,
Math. Comp. 22, 1968), on numpy integer matrices whose rows are word
vectors and whose columns are the class words in sorted order.  Rows are
taken in order; a row still nonzero when its turn comes becomes an
echelon row, its pivot is its least nonzero word, and it reduces every
later row v with a nonzero entry a there by v <- p*v - a*row (p its pivot
entry, p and a first divided by their gcd).  Every row is kept divided by
its gcd, and rows that vanish drop out.  So each row is a multiple of the
row a rational elimination keeps, and every choice is the same.  Entries
are int64 until a step could reach 2**62; that step and all after it run
on Python integers (dtype=object), so no entry overflows and no float
enters.  A leading batch axis eliminates many small matrices in one call.
A tracked elimination appends each row's combination as extra columns
that are never pivots (the gcd spans both parts), and a rational target
is scaled to integers once, its scale riding in those columns, so its
remainder and weights divide back exactly.  Each class gets one echelon,
built in one pass the first time a caller asks for that class, with its
elements taken from high nominal order to low; it tracks no
combinations: certification needs none.

Projection.  A single-class operator is split into (beta, m) strata;
each stratum is a rational vector over the class words.  Certification
is one reduction per stratum against the class echelon.  Because its
rows were inserted from high order to low, the label of the last row
the reduction uses carries a nonzero weight and no later label carries
any, so that label's order is the stratum's certificate, and the lowest
over the strata is the certified minimum order.  Projection spells a
stratum in as few elements as it can, preferring low order first, then
the listing order: the subsets of up to three columns are enumerated
in bounded numpy blocks, filtered by bit masks of the words they cover,
and the covering ones of a block screened by batched eliminations.
When no small subset spans a stratum, one untracked pass over the
preference-ordered columns picks the greedy-independent ones, and one
tracked elimination over those alone gives the weights.  Whatever cannot
be expressed is returned verbatim as a residual, and reconstruction
(entries plus residual) is exact by construction.  Because the columns
are redundant, reports project at the certified minimum order, which
keeps low-order spellings out of a difference that certifies higher.

Beta and mass bookkeeping: basis expansions are pure words.  The beta
and m content of the projected operator is uniform within a stratum, so
it is factored out and reported per combination entry rather than being
folded into the basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from fwforge.lang import format_term, parse_expr, term_strings
from fwforge.ncalg import AbstractExpr, Budget, expand, parity_and_order

__all__ = [
    "BasisElement",
    "BracketBasis",
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
    """One admitted bracket monomial, with its kind rank and the integer
    coefficients of the words of its expansion."""

    text: str
    kind: int
    order: int
    e_count: int
    o_count: int
    word_vector: dict[str, int] = field(hash=False)

    @property
    def klass(self) -> tuple[int, int]:
        return (self.e_count, self.o_count)

    @cached_property
    def expansion(self) -> AbstractExpr:
        """The word vector as an expression, built on first use: a basis
        keeps only the integer vectors, which take a few times less memory."""
        return AbstractExpr({(0, word, 0): coeff for word, coeff in self.word_vector.items()})


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


# Kind ranks: commutators first, then powers and products, then
# anticommutators, mirroring how the narrative prefers to name a class
# (bracket form before padded form); the letters O and E come last.
_COMM, _PRODUCT, _ACOMM, _LETTER = range(4)


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


# Entries stay below this in int64; a step that could reach it runs on
# Python integers (dtype=object) from then on.
_INT64_BOUND = 1 << 62


def _word_matrix(vectors: Sequence[dict[str, int]], index: dict[str, int]) -> np.ndarray:
    """Integer word vectors as the rows of a matrix with columns `index`."""
    big = any(abs(value) >= _INT64_BOUND for vector in vectors for value in vector.values())
    matrix = np.zeros((len(vectors), len(index)), dtype=object if big else np.int64)
    for row, vector in zip(matrix, vectors):
        row[[index[word] for word in vector]] = list(vector.values())
    return matrix


def _primitive_rows(block: np.ndarray) -> np.ndarray:
    """Each row (last axis) divided by the gcd of its entries, in place."""
    content = np.gcd.reduce(block, axis=-1)
    divisible = content > 1
    if divisible.any():
        block[divisible] //= content[divisible][..., None]
    return block


def _magnitude(array: np.ndarray) -> int:
    """The largest absolute entry."""
    return max(int(array.max()), -int(array.min()))


def _eliminate(
    matrix: np.ndarray, pivot_rows: int | None = None, pivot_cols: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fraction-free row echelon of an integer matrix, or of a batch of them.

    `matrix` is (n, c), or (b, n, c) for b independent matrices, of int64
    or Python-int (object) entries; it is not modified.  Rows become
    echelon rows in order: a row of the first `pivot_rows` that is still
    nonzero on the first `pivot_cols` columns when its turn comes is the
    next echelon row, and its pivot is its first nonzero column there.  It
    reduces every later row with a nonzero entry a at its pivot by
    v <- p*v - a*row, with p its pivot entry and p, a first divided by
    their gcd; every row is kept divided by the gcd of all its entries.
    Rows that vanish on the pivot columns drop out.  The other rows and
    columns are only reduced: targets, and tracked combinations.

    Returns the reduced matrix (object dtype once a step could reach
    _INT64_BOUND), each row's pivot column (-1 for a row that did not
    become an echelon row) and the index of the last echelon row that
    reduced it (-1 for none).
    """
    block = _primitive_rows((matrix[None] if matrix.ndim == 2 else matrix).copy())
    count, n, width = block.shape
    pivot_rows = n if pivot_rows is None else pivot_rows
    pivot_cols = width if pivot_cols is None else pivot_cols
    live = (block[:, :, :pivot_cols] != 0).any(axis=2)
    pivots = np.full((count, n), -1)
    last = np.full((count, n), -1)
    everything = np.arange(n)
    while True:
        eligible = live[:, :pivot_rows]
        batch = np.flatnonzero(eligible.any(axis=1))
        if not batch.size:
            break
        at = eligible[batch].argmax(axis=1)
        live[batch, at] = False
        rows = block[batch, at]
        cols = (rows[:, :pivot_cols] != 0).argmax(axis=1)
        pivots[batch, at] = cols
        leads = rows[np.arange(batch.size), cols]
        factors = block[batch[:, None], everything, cols[:, None]]
        hit, targets = np.nonzero(live[batch] & (factors != 0))
        if not hit.size:
            continue
        a = factors[hit, targets]
        p = leads[hit]
        common = np.gcd(a, p)
        a, p = a // common, p // common
        where = (batch[hit], targets)
        new = block[where]
        by = rows if batch.size == 1 else rows[hit]
        if block.dtype != object and (
            _magnitude(p) * _magnitude(new) + _magnitude(a) * _magnitude(by) >= _INT64_BOUND
        ):
            block, new, by, a, p = (x.astype(object) for x in (block, new, by, a, p))
        new *= p[:, None]
        new -= a[:, None] * by
        block[where] = _primitive_rows(new)
        last[where] = at[hit]
        gone = ~(new[:, :pivot_cols] != 0).any(axis=1)
        live[batch[hit][gone], targets[gone]] = False
    if matrix.ndim == 2:
        return block[0], pivots[0], last[0]
    return block, pivots, last


def _solve(
    rows: np.ndarray, targets: np.ndarray, scales: Sequence[int]
) -> list[tuple[dict[int, Fraction], list[Fraction]]]:
    """Per target t, (remainder, weights) with targets[t] / scales[t] ==
    remainder + sum(weights[i] * rows[i]), remainder keyed by column.

    The rows must be independent.  One tracked elimination: each row
    carries a unit vector and each target its scale, in extra columns that
    are never pivots, so a reduced target's extra columns hold its weights.
    """
    count, width = rows.shape
    big = rows.dtype == object or targets.dtype == object or max(scales) >= _INT64_BOUND
    tracked = np.zeros((count + len(targets), width + count + 1), dtype=object if big else np.int64)
    tracked[:count, :width] = rows
    tracked[count:, :width] = targets
    tracked[np.arange(count), width + np.arange(count)] = 1
    tracked[count:, -1] = scales
    reduced, _, _ = _eliminate(tracked, pivot_rows=count, pivot_cols=width)
    solutions = []
    for final in reduced[count:]:
        scale = int(final[-1])
        remainder = {
            int(col): Fraction(int(final[col]), scale) for col in np.flatnonzero(final[:width] != 0)
        }
        solutions.append((remainder, [Fraction(-int(value), scale) for value in final[width:-1]]))
    return solutions


@dataclass(frozen=True)
class _ClassEchelon:
    """A class's echelon, rows in insertion order.

    Row i is a primitive integer vector over the columns of `index`; its
    least nonzero word is in column pivots[i], and it reduces the vector
    of the element labels[i] against the rows before it.
    """

    index: dict[str, int]
    rows: np.ndarray
    pivots: np.ndarray
    labels: tuple[str, ...]

    def last_used(self, vectors: Sequence[dict[str, int]]) -> list[str | None]:
        """Per integer vector, the label of the last row its reduction
        uses, or None when a remainder is left."""
        count = len(self.rows)
        stacked = np.concatenate([self.rows, _word_matrix(vectors, self.index)])
        reduced, _, last = _eliminate(stacked, pivot_rows=count)
        return [
            None if (reduced[count + i] != 0).any() else self.labels[last[count + i]]
            for i in range(len(vectors))
        ]


def _word_rows(
    klass: tuple[int, int], elements: Sequence[BasisElement]
) -> tuple[dict[str, int], np.ndarray]:
    """The class words, sorted, as column indices, and the word vectors of
    `elements` (of that class) as matrix rows over them."""
    e_count, o_count = klass
    length = e_count + o_count
    words = sorted(
        "".join("E" if i in places else "O" for i in range(length))
        for places in combinations(range(length), e_count)
    )
    index = {word: col for col, word in enumerate(words)}
    return index, _word_matrix([element.word_vector for element in elements], index)


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
        self._echelons: dict[tuple[int, int], _ClassEchelon] = {}
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
            key=lambda el: (-el.order, el.kind, el.text),
        )

    def echelon(self, klass: tuple[int, int]) -> _ClassEchelon:
        """The class echelon (untracked), built on first use in one pass."""
        self._require(klass)
        echelon = self._echelons.get(klass)
        if echelon is None:
            order = self._insertion_order(klass)
            index, matrix = _word_rows(klass, order)
            reduced, pivots, _ = _eliminate(matrix)
            kept = np.flatnonzero(pivots >= 0)
            echelon = self._echelons[klass] = _ClassEchelon(
                index, reduced[kept], pivots[kept], tuple(order[i].text for i in kept)
            )
        return echelon

    def class_elements(self, e_count: int, o_count: int) -> tuple[BasisElement, ...]:
        self._require((e_count, o_count))
        return tuple(self._by_class.get((e_count, o_count), ()))

    def element(self, text: str) -> BasisElement:
        return self._by_text[text]

    def classes(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._by_class))

    def __len__(self) -> int:
        return len(self.elements)


# (text, word, kind) of each atom.  Heavy letters first so the
# first-offered orientation of a fresh direction reads like the narrative
# ([O, E], not [E, O]).
_ATOMS = (
    ("pow(O, 6)", "OOOOOO", _PRODUCT),
    ("pow(O, 4)", "OOOO", _PRODUCT),
    ("pow(O, 2)", "OO", _PRODUCT),
    ("O", "O", _LETTER),
    ("E", "E", _LETTER),
)


# Preferred spellings for directions the narrative names explicitly, each
# in the canonical text the candidates are spelled in: "comm(a, b)",
# "acomm(a, b)" and "pow(a, n)" around operand texts.  No spelling here
# holds a product, so the text alone decides whether a candidate is
# curated.  Each starts with comm(, acomm( or pow(, which gives its kind.
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
    """A bracket spelling with its kind rank, grading order, class and
    integer word vector; the vector is its untruncated expansion."""

    text: str
    kind: int
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


def _offer(best: dict[tuple, _Candidate], candidate: _Candidate) -> bool:
    """Record a nonzero candidate under its direction, replacing the one
    held only when it beats it; True when the direction is new."""
    key = _direction(candidate.vector)
    held = best.get(key)
    if held is None:
        best[key] = candidate
        return True
    if candidate.beats(held):
        best[key] = candidate
    return False


def _bracket_candidates(
    best: dict[tuple, _Candidate],
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
            if klass not in allowed or left.text == right.text:
                continue
            comm, acomm = _word_brackets(left.vector, right.vector)
            # A commutator of two odd operators costs no hbar.
            both_odd = left_o % 2 and right.klass[1] % 2
            order = left.order + right.order
            if comm:
                new = _Candidate(
                    f"comm({left.text}, {right.text})",
                    _COMM,
                    order if both_odd else order + 1,
                    klass,
                    comm,
                )
                if _offer(best, new):
                    fresh.append(new)
            pair = (min(i, j), max(i, j)) if lefts is rights else (i, j)
            if pair in seen_acomm:
                continue
            seen_acomm.add(pair)
            if acomm:
                new = _Candidate(
                    f"acomm({left.text}, {right.text})",
                    _ACOMM,
                    order,
                    klass,
                    acomm,
                )
                if _offer(best, new):
                    fresh.append(new)
    return fresh


def _product(left: _Candidate, right: _Candidate, klass: tuple[int, int]) -> _Candidate:
    return _Candidate(
        f"{left.text} * {right.text}",
        _PRODUCT,
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

    best: dict[tuple, _Candidate] = {}
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
        kind = {"comm": _COMM, "pow": _PRODUCT, "acomm": _ACOMM}[text[: text.index("(")]]
        candidate = _Candidate(text, kind, parity_and_order(tree)[1], klass, vector)
        _offer(best, candidate)
        curated_candidates.append(candidate)
    atom_candidates: list[_Candidate] = []
    for text, word, kind in _ATOMS:
        klass = (word.count("E"), word.count("O"))
        if klass not in allowed:
            continue
        candidate = _Candidate(text, kind, 0, klass, {word: 1})
        _offer(best, candidate)
        atom_candidates.append(candidate)

    # Round 1: brackets of atoms.  Round 2: brackets over everything so
    # far.  Rounds 3..5: one more atom layer each (padding and nesting).
    # The curated spellings ride along: they claimed their directions
    # above, so the new-direction rounds would otherwise never feed the
    # narrative's own commutators back into deeper nestings or products.
    round1 = _bracket_candidates(best, atom_candidates, atom_candidates, allowed)
    pool = atom_candidates + round1 + curated_candidates
    round2 = _bracket_candidates(best, pool, pool, allowed)
    layer = round1 + round2 + curated_candidates
    for _ in range(3):
        grown = _bracket_candidates(best, atom_candidates, layer, allowed)
        grown += _bracket_candidates(best, layer, atom_candidates, allowed)
        layer = grown

    # Two-factor products of brackets (both factors carry order >= 1),
    # then one bracket layer around the products for padded squares.
    # Products of nonzero vectors are nonzero: the free algebra has no
    # zero divisors.  The only powers among the rounds and the curated
    # spellings are curated pow(...) squares, and they stay out.
    bracket_pool = [c for c in round1 + round2 + curated_candidates if c.kind != _PRODUCT]
    products: list[_Candidate] = []
    for left in bracket_pool:
        left_e, left_o = left.klass
        for right in bracket_pool:
            klass = (left_e + right.klass[0], left_o + right.klass[1])
            if klass not in allowed:
                continue
            if left.text == right.text:
                product = _Candidate(
                    f"pow({left.text}, 2)",
                    _PRODUCT,
                    2 * left.order,
                    klass,
                    _word_product(left.vector, left.vector),
                )
            else:
                product = _product(left, right, klass)
            _offer(best, product)
            products.append(product)
    _bracket_candidates(best, atom_candidates, products, allowed)
    _bracket_candidates(best, products, atom_candidates, allowed)

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
            _offer(best, _product(middle, extra, klass))
            _offer(best, _product(extra, middle, klass))

    # Every representative becomes an element: the basis is deliberately
    # overcomplete (see the module docstring).
    elements = []
    for held in best.values():
        element = BasisElement(
            text=held.text,
            kind=held.kind,
            order=held.order,
            e_count=held.klass[0],
            o_count=held.klass[1],
            word_vector=dict(sorted(held.vector.items())),
        )
        elements.append(element)
    elements.sort(key=lambda el: (el.order, el.klass, el.text))
    return BracketBasis(budget, elements, classes=classes)


def _strata(piece: AbstractExpr) -> dict[tuple[int, int], dict[str, Fraction]]:
    strata: dict[tuple[int, int], dict[str, Fraction]] = {}
    for (beta_exp, word, m_exp), coeff in piece.terms():
        strata.setdefault((beta_exp, m_exp), {})[word] = coeff
    return strata


_SPARSE_LIMIT = 3
_SUBSET_BUDGET = 300_000
_SUBSET_BLOCK = 1 << 13
# Subset blocks and screens stay about 1 MiB at most.
_SCREEN_BYTES = 1 << 20


def _binomial(n, k: int):
    """n choose k, elementwise for an integer array n >= 0."""
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _unrank(ranks: np.ndarray, n: int, size: int) -> np.ndarray:
    """The size-subsets of range(n) at the given ranks of `combinations` order."""
    members = []
    low = np.zeros_like(ranks)
    for left in range(size, 0, -1):
        # before[j]: the left-subsets of range(n) whose least member is below j.
        before = _binomial(n, left) - _binomial(n - np.arange(n + 1), left)
        ranks = ranks + before[low]
        least = np.searchsorted(before, ranks, side="right") - 1
        members.append(least)
        ranks = ranks - before[least]
        low = least + 1
    return np.column_stack(members)


def _bit_masks(flags: np.ndarray) -> np.ndarray:
    """Rows of booleans packed into 64-bit words."""
    packed = np.packbits(flags, axis=1)
    words = np.zeros((len(flags), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def _sparse_solve(target: np.ndarray, columns: np.ndarray) -> tuple[int, ...] | None:
    """The first subset of at most _SPARSE_LIMIT columns (matrix rows) that
    covers the target's words, is independent and spans the target.

    Subsets are tried smallest first, in `combinations` order, so ties
    resolve toward the column preference; the search gives up (None) after
    _SUBSET_BUDGET subsets.  Linearly dependent subsets are skipped: their
    span equals that of a smaller subset already tried.  Subsets come in
    blocks of _SUBSET_BLOCK; a subset covers the target when the OR of its
    columns' word masks fills the target's, and the covering subsets of a
    block are screened by batched eliminations of their columns with the
    target below them, _SCREEN_BYTES at most each.
    """
    used = np.flatnonzero((columns != 0).any(axis=0) | (target != 0))
    columns, target = columns[:, used], target[used]
    wanted = target != 0
    masks = _bit_masks(columns[:, wanted] != 0)
    full = _bit_masks(wanted[None, wanted])[0]
    left = _SUBSET_BUDGET
    for size in range(1, min(_SPARSE_LIMIT, len(columns)) + 1):
        total = min(comb(len(columns), size), left)
        for start in range(0, total, _SUBSET_BLOCK):
            ranks = np.arange(start, min(start + _SUBSET_BLOCK, total))
            subsets = _unrank(ranks, len(columns), size)
            covered = masks[subsets[:, 0]]
            for member in range(1, size):
                covered = covered | masks[subsets[:, member]]
            found = _screen(subsets[(covered == full).all(axis=1)], columns, target)
            if found is not None:
                return found
        left -= total
        if not left:
            return None
    return None


def _screen(subsets: np.ndarray, columns: np.ndarray, target: np.ndarray) -> tuple[int, ...] | None:
    """The first subset whose columns are independent and span the target."""
    size = subsets.shape[1]
    chunk = max(1, _SCREEN_BYTES // ((size + 1) * columns.shape[1] * 8))
    for start in range(0, len(subsets), chunk):
        part = subsets[start : start + chunk]
        stacked = np.concatenate(
            [columns[part], np.broadcast_to(target, (len(part), 1, len(target)))], axis=1
        )
        reduced, pivots, _ = _eliminate(stacked, pivot_rows=size)
        passed = (pivots[:, :size] >= 0).all(axis=1) & ~(reduced[:, size] != 0).any(axis=1)
        if passed.any():
            return tuple(int(column) for column in part[passed.argmax()])
    return None


def _preferred_columns(
    basis: BracketBasis, klass: tuple[int, int], min_order: int
) -> list[BasisElement]:
    """The class elements of order >= min_order: lower order first, then
    the narrative's display vocabulary, then the kind rank and the text."""
    return sorted(
        (element for element in basis.class_elements(*klass) if element.order >= min_order),
        key=lambda el: (el.order, el.text not in _CURATED_TEXTS, el.kind, el.text),
    )


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
    columns = _preferred_columns(basis, klass, min_order)
    index, matrix = _word_rows(klass, columns)
    words = tuple(index)
    independent = None

    entries: list[ProjectionEntry] = []
    residual_terms: dict[tuple[int, str, int], Fraction] = {}
    for (beta_exp, m_exp), vector in sorted(_strata(piece).items()):
        scaled, scale = _integral(vector)
        target = _word_matrix([scaled], index)
        support = _sparse_solve(target[0], matrix)
        if support is None:
            # The greedy fallback: the columns each independent of the
            # preferred ones before it.
            if independent is None:
                independent = tuple(np.flatnonzero(_eliminate(matrix)[1] >= 0))
            support = independent
        ((remainder, weights),) = _solve(matrix[list(support)], target, [scale])
        for column, weight in zip(support, weights):
            if weight:
                entries.append(
                    ProjectionEntry(
                        element=columns[column],
                        weight=weight,
                        beta_exp=beta_exp,
                        m_exp=m_exp,
                    )
                )
        for col, coeff in remainder.items():
            residual_terms[(beta_exp, words[col], m_exp)] = coeff
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
    labels = basis.echelon(klass).last_used(
        [_integral(vector)[0] for vector in _strata(piece).values()]
    )
    if None in labels:
        return None
    return min(basis.element(label).order for label in labels)


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
