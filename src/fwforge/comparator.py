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
products, and one more bracket layer around the two-factor products.  A
candidate is its text, its kind (commutator, power or product,
anticommutator, letter), its nominal order and its class (e, o), kept in
parallel lists, and its integer row over the class words in sorted
order, kept in one matrix per class; no bracket tree is built.  The
class of a bracket or product is the sum of its operands' classes, so
the class test decides the budget for a whole block of pairs at once.
Word concatenation is injective, so the products of all the pairs of two
classes are one outer product of their rows scattered through a table of
concatenated words, and commutators and anticommutators are the
difference and sum of the two orders.  These blocks take about 1 MiB,
and every row is int64 by construction.  An atom's row has L1 norm 1; a
product's norm is its factors' product, since its outer product lands on
distinct columns, and a bracket's at most twice that.  No candidate has
more than 23 atoms (a curated spelling 5, round 2 10, the atom layers
13, a product 21 with its bracket, a three-factor one 23), so a row's
norm stays below 2**22 and a block entry, at most 2 max|l| max|r|, below
2**45.  `_Candidates._blocks` raises OverflowError past int64.  Only the
curated spellings are parsed and go through `expand`, once each.
Candidates that vanish are dropped; parallel candidates collapse onto
one direction, keyed by the row over its gcd with a positive lead,
behind its class, as bytes.  Each direction keeps one representative
(the highest-order label wins, so the span per order cutoff is never
understated), and the first candidate of a new direction, in the order
the pairs are listed, feeds the next round.  Every surviving direction
becomes a basis element that views its row in its class matrix: the
collection is deliberately redundant, because different bracket
spellings of the same content are exactly what the agreement narrative
trades in.  Asked for some classes, `build_basis` skips every pair whose
class lies outside their sub-class closure; since classes add and no
direction crosses a class, each class it keeps gets exactly the elements
of the full basis.  Building the basis does no elimination.

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
enters.  Only this kernel, the solves, the targets and the subset screen
switch so; basis rows never need to.  A leading batch axis eliminates
many small matrices in one call.
A tracked elimination appends each row's combination as extra columns
that are never pivots (the gcd spans both parts), and a rational target
is scaled to integers once, its scale riding in those columns, so its
remainder and weights divide back exactly.  Each class gets one echelon,
built in one pass the first time a caller asks for that class, with its
elements taken from high nominal order to low; it tracks no
combinations: certification needs none.

Projection.  `diff_report` explains every difference in brackets, for
`compare` and both stepwise reports: per differing class it projects at
the caller's order, or else certifies and projects at the certified one,
which keeps low-order spellings out of a difference that certifies
higher.  A class is split into (beta, m) strata, rational vectors over
its words.  Certification is one reduction per stratum against the class
echelon.  Because its rows were inserted from high order to low, the
label of the last row the reduction uses carries a nonzero weight and no
later label carries any, so that label's order is the stratum's
certificate, and the lowest over the strata is the certified minimum
order.  Projection spells a stratum in as few elements as it can,
preferring low order first, then the listing order: it visits the
subsets of up to three columns in `combinations` order, under a budget.
A subset S can span the target t only when the rows of [S; t] are
dependent, and then det([S; t] P) = 0 for every integer matrix P.  So,
with one fixed P of small entries, a subset whose determinant is nonzero
is dropped, exactly.  The determinant is linear in a subset's last
column, so a block of subsets that share their other columns is one
integer matrix product.  The few subsets left are screened by batched
eliminations, in order.  When no small subset spans a stratum, one
untracked pass over the preference-ordered columns picks the
greedy-independent ones, and one tracked elimination over those alone
gives the weights.  Whatever cannot be expressed is returned verbatim as
a residual, and reconstruction (entries plus residual) is exact by
construction.

Beta and mass bookkeeping: basis expansions are pure words.  The beta
and m content of the projected operator is uniform within a stratum, so
it is factored out and reported per combination entry rather than being
folded into the basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, islice, permutations
from fractions import Fraction
from math import comb, factorial, lcm
from operator import attrgetter
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
]


@cache
def _class_words(klass: tuple[int, int]) -> tuple[str, ...]:
    """The words with klass's E and O counts, sorted: the columns of every
    row of that class."""
    e_count, o_count = klass
    length = e_count + o_count
    return tuple(
        sorted(
            "".join("E" if i in places else "O" for i in range(length))
            for places in combinations(range(length), e_count)
        )
    )


@cache
def _class_index(klass: tuple[int, int]) -> dict[str, int]:
    """Each word of the class to its column."""
    return {word: col for col, word in enumerate(_class_words(klass))}


@dataclass(frozen=True)
class BasisElement:
    """One admitted bracket monomial: its text, kind rank, grading order and
    class, and `row`, the integer coefficients of its expansion over the
    class words in sorted order.  The row is a read-only view into one
    matrix per class; `word_vector` and `expansion` are built from it on
    demand."""

    text: str
    kind: int
    order: int
    e_count: int
    o_count: int
    row: np.ndarray = field(compare=False, hash=False, repr=False)

    @property
    def klass(self) -> tuple[int, int]:
        return (self.e_count, self.o_count)

    @property
    def word_vector(self) -> dict[str, int]:
        """The nonzero coefficients by word, words in sorted order."""
        words = _class_words(self.klass)
        return {words[col]: int(self.row[col]) for col in np.flatnonzero(self.row)}

    @cached_property
    def expansion(self) -> AbstractExpr:
        """The word vector as an expression, built on first use."""
        return AbstractExpr({(0, word, 0): coeff for word, coeff in self.word_vector.items()})


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


# Entries stay below this in int64; a step that could reach it runs on
# Python integers (dtype=object) from then on.
_INT64_BOUND = 1 << 62
# Batched products and subset screens work in blocks of about this size.
_BLOCK_BYTES = 1 << 20


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
    """The class words, sorted, as column indices, and the stored rows of
    `elements` (of that class) gathered into one matrix over them."""
    index = _class_index(klass)
    rows = np.array([element.row for element in elements], dtype=np.int64)
    return index, rows.reshape(len(elements), len(index))


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
            self._by_class.setdefault((element.e_count, element.o_count), []).append(element)
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


@cache
def _concatenations(
    left: tuple[int, int], right: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """For left word u and right word v, in sorted order and flattened
    row-major over (u, v): the columns of uv and of vu among the words of
    the sum class.  Concatenation is injective, so neither table repeats a
    column."""
    index = _class_index((left[0] + right[0], left[1] + right[1]))
    lefts, rights = _class_words(left), _class_words(right)
    return (
        np.array([index[u + v] for u in lefts for v in rights], dtype=np.intp),
        np.array([index[v + u] for u in lefts for v in rights], dtype=np.intp),
    )


def _pair_blocks(
    left_class: tuple[int, int],
    lefts: np.ndarray,
    right_class: tuple[int, int],
    rights: np.ndarray,
    brackets: bool,
):
    """Yield (left slice, right slice, rows) for blocks of the pairs
    (lefts[i], rights[j]), i and j in those slices, in row-major order.

    `lefts` and `rights` are int64 rows over their class words.  Each
    pair's outer product, scattered through one concatenation table, is
    the row of lefts[i] * rights[j] over the words of the sum class, and
    scattered through the other, that of rights[j] * lefts[i].  rows is
    (comm, acomm), their difference and sum, with `brackets`, else
    (product,).  A block's rows take about _BLOCK_BYTES.
    """
    width = len(_class_words((left_class[0] + right_class[0], left_class[1] + right_class[1])))
    forward_at, backward_at = _concatenations(left_class, right_class)
    per_block = max(1, _BLOCK_BYTES // (8 * width))
    right_step = min(len(rights), per_block)
    left_step = max(1, per_block // right_step)
    for left_start in range(0, len(lefts), left_step):
        left_slice = slice(left_start, left_start + left_step)
        left = lefts[left_slice]
        for right_start in range(0, len(rights), right_step):
            right_slice = slice(right_start, right_start + right_step)
            right = rights[right_slice]
            outer = (left[:, None, :, None] * right[None, :, None, :]).reshape(
                len(left) * len(right), -1
            )
            forward = np.zeros((len(outer), width), dtype=outer.dtype)
            forward[:, forward_at] = outer
            if not brackets:
                yield left_slice, right_slice, (forward,)
                continue
            backward = np.zeros_like(forward)
            backward[:, backward_at] = outer
            yield left_slice, right_slice, (forward - backward, forward + backward)


def _direction_keys(klass: tuple[int, int], rows: np.ndarray) -> list[bytes]:
    """The direction key of each nonzero int64 row of the class: the row
    over the gcd of its entries, signed so its first nonzero entry is
    positive, as bytes behind the class.  Rows of one class share a key
    exactly when they are parallel."""
    content = np.gcd.reduce(rows, axis=1, initial=0)
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    coded = np.empty((len(rows), rows.shape[1] + 1), dtype=np.int64)
    coded[:, 0] = klass[0] << 32 | klass[1]
    coded[:, 1:] = rows // np.where(lead < 0, -content, content)[:, None]
    return coded.view(np.dtype((np.void, 8 * coded.shape[1]))).ravel().tolist()


class _Candidates:
    """The candidates one build keeps.  A candidate is an id that indexes
    parallel lists of text, kind rank, grading order, class and row
    position; its integer row over the class words is that row of its
    class's matrix.  `best` maps each direction key to the id of the
    candidate that beats every other offered for it."""

    def __init__(self, allowed: frozenset[tuple[int, int]]):
        self.allowed = allowed
        self.texts: list[str] = []
        self.kinds: list[int] = []
        self.orders: list[int] = []
        self.classes: list[tuple[int, int]] = []
        self.at: list[int] = []
        self.matrices: dict[tuple[int, int], np.ndarray] = {}
        self.sizes: dict[tuple[int, int], int] = {}
        self.best: dict = {}

    def _add(self, text: str, kind: int, order: int, klass: tuple[int, int], row) -> int:
        size = self.sizes.get(klass, 0)
        matrix = self.matrices.get(klass)
        if matrix is None or size == len(matrix):
            # Room for twice as many rows.
            grown = np.zeros((max(16, 2 * size), len(row)), dtype=np.int64)
            grown[:size] = matrix[:size] if size else 0
            self.matrices[klass] = matrix = grown
        matrix[size] = row
        self.sizes[klass] = size + 1
        self.texts.append(text)
        self.kinds.append(kind)
        self.orders.append(order)
        self.classes.append(klass)
        self.at.append(size)
        return len(self.texts) - 1

    def rows(self, klass: tuple[int, int], ids: Sequence[int]) -> np.ndarray:
        """The rows of `ids`, all of that class, as one matrix."""
        return self.matrices[klass][[self.at[cid] for cid in ids]]

    def _beats(self, text: str, order: int, held: int) -> bool:
        """Higher order wins, then a curated spelling, then shorter text,
        then the text that sorts first."""
        if order != self.orders[held]:
            return order > self.orders[held]
        theirs = self.texts[held]
        ours_rank = (text in _CURATED_TEXTS, -len(text))
        theirs_rank = (theirs in _CURATED_TEXTS, -len(theirs))
        return ours_rank > theirs_rank or (ours_rank == theirs_rank and text < theirs)

    def claim(self, text: str, kind: int, order: int, klass: tuple[int, int], row) -> int:
        """Keep a candidate and offer it; its id."""
        key = _direction_keys(klass, row[None])[0]
        return self._offer(key, text, kind, order, klass, row, keep=True)

    def _offer(
        self, key, text: str, kind: int, order: int, klass: tuple[int, int], row, keep: bool = False
    ) -> int | None:
        """Offer a candidate for direction `key`: it wins when none is held
        or it beats the one held, and then it is held.  It is kept when it
        wins or with `keep`; its id, or None when it was not kept."""
        held = self.best.get(key)
        wins = held is None or self._beats(text, order, held)
        if not (wins or keep):
            return None
        cid = self._add(text, kind, order, klass, row)
        if wins:
            self.best[key] = cid
        return cid

    def _groups(self, ids: Sequence[int]) -> dict:
        """Per class among `ids`: the positions in `ids` and the rows."""
        at: dict[tuple[int, int], list[int]] = {}
        for position, cid in enumerate(ids):
            at.setdefault(self.classes[cid], []).append(position)
        return {
            klass: (np.array(positions), self.rows(klass, [ids[p] for p in positions]))
            for klass, positions in at.items()
        }

    def _blocks(self, lefts: Sequence[int], rights: Sequence[int], brackets: bool):
        """_pair_blocks over the pairs of lefts and rights whose class is
        allowed, the class pairs of one sum class merged up to about
        _BLOCK_BYTES a block: (class, positions i in lefts, positions j in
        rights, rows)."""
        left_groups = self._groups(lefts)
        right_groups = left_groups if lefts is rights else self._groups(rights)
        # A block entry is at most 2 max|l| max|r| (see the module docstring).
        left_max, right_max = (
            max((_magnitude(rows) for _, rows in groups.values()), default=0)
            for groups in (left_groups, right_groups)
        )
        if 2 * left_max * right_max > np.iinfo(np.int64).max:
            raise OverflowError(f"bracket rows with entries {left_max} and {right_max} pass int64")
        by_sum: dict[tuple[int, int], list] = {}
        for left_class in left_groups:
            for right_class in right_groups:
                klass = (left_class[0] + right_class[0], left_class[1] + right_class[1])
                if klass in self.allowed:
                    by_sum.setdefault(klass, []).append((left_class, right_class))
        for klass, class_pairs in by_sum.items():
            parts: list = []
            size = 0
            for left_class, right_class in class_pairs:
                left_at, left_rows = left_groups[left_class]
                right_at, right_rows = right_groups[right_class]
                for left_slice, right_slice, rows in _pair_blocks(
                    left_class, left_rows, right_class, right_rows, brackets
                ):
                    i, j = left_at[left_slice], right_at[right_slice]
                    parts.append((np.repeat(i, len(j)), np.tile(j, len(i)), *rows))
                    size += rows[0].nbytes
                    if size >= _BLOCK_BYTES:
                        yield klass, *_merged(parts)
                        parts, size = [], 0
            if parts:
                yield klass, *_merged(parts)

    def brackets(
        self, lefts: Sequence[int], rights: Sequence[int], mirror: bool = False
    ) -> list[int]:
        """Offer the commutator and anticommutator of every pair (lefts[i],
        rights[j]) with an allowed class and two texts that differ (when
        lefts is rights, the anticommutator for i < j only).  Returns the
        new directions, each as the first candidate offered for it in
        (i, j, commutator before anticommutator) order, in that order.

        With `mirror`, each pair also offers the brackets spelled the other
        way round, comm(r, l) and acomm(r, l): the same pass over rights and
        lefts would offer them.  They lie on the directions of comm(l, r)
        and acomm(l, r), so they bring no new direction and only compete
        for the representative."""
        once = lefts is rights
        firsts: dict = {}
        texts, orders, classes, best = self.texts, self.orders, self.classes, self.best
        per_left = len(rights)
        for klass, at_i, at_j, comm, acomm in self._blocks(lefts, rights, True):
            pairs = len(comm)
            rows = np.concatenate([comm, acomm])
            live = (rows != 0).any(axis=1)
            if once:
                live[pairs:] &= at_i < at_j
            picked = np.flatnonzero(live)
            i, j = at_i.tolist(), at_j.tolist()
            for p, key in zip(picked.tolist(), _direction_keys(klass, rows[picked])):
                is_acomm = p >= pairs
                pair = p - pairs if is_acomm else p
                a, b = lefts[i[pair]], rights[j[pair]]
                order = orders[a] + orders[b]
                if not is_acomm and not (classes[a][1] % 2 and classes[b][1] % 2):
                    order += 1  # A commutator costs one hbar unless both operands are odd.
                held, first = best.get(key), firsts.get(key)
                if held is not None and first is None and order < orders[held]:
                    continue  # no spelling of it can win
                left_text, right_text = texts[a], texts[b]
                if left_text == right_text:
                    continue
                kind, name = (_ACOMM, "acomm") if is_acomm else (_COMM, "comm")
                text = f"{name}({left_text}, {right_text})"
                # It is recorded as its direction's first when no candidate
                # held the direction before this pass and none offered in
                # this pass comes before it.
                seq = 2 * (i[pair] * per_left + j[pair]) + is_acomm
                earlier = held is None or (first is not None and seq < first[0])
                cid = self._offer(key, text, kind, order, klass, rows[p], earlier)
                if earlier:
                    firsts[key] = (seq, cid)
                if mirror:
                    text = f"{name}({right_text}, {left_text})"
                    row = rows[p] if is_acomm else -rows[p]
                    self._offer(key, text, kind, order, klass, row)
        return [cid for _, cid in sorted(firsts.values())]

    def products(self, lefts: Sequence[int], rights: Sequence[int], keep: bool) -> list[int]:
        """Offer lefts[i] * rights[j] for every pair with an allowed class,
        spelled pow(x, 2) when lefts is rights and the texts are equal.
        With `keep`, every product is kept, and all of them are returned in
        (i, j) order; products of nonzero rows are nonzero, since the free
        algebra has no zero divisors."""
        square = lefts is rights
        made = []
        for klass, at_i, at_j, rows in self._blocks(lefts, rights, False):
            i, j = at_i.tolist(), at_j.tolist()
            for p, key in enumerate(_direction_keys(klass, rows)):
                a, b = lefts[i[p]], rights[j[p]]
                left_text, right_text = self.texts[a], self.texts[b]
                order = self.orders[a] + self.orders[b]
                text = (
                    f"pow({left_text}, 2)"
                    if square and left_text == right_text
                    else f"{left_text} * {right_text}"
                )
                cid = self._offer(key, text, _PRODUCT, order, klass, rows[p], keep)
                if keep:
                    made.append((i[p] * len(rights) + j[p], cid))
        return [cid for _, cid in sorted(made)]


def _merged(parts: list) -> tuple:
    """The blocks of `parts` as one, component by component."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(component) for component in zip(*parts))


def _expansion_row(expansion: AbstractExpr, text: str) -> tuple[tuple[int, int], np.ndarray]:
    """The class and integer row of a one-class pure-word expansion:
    brackets and products of letters and powers of O carry no fractions."""
    vector = {}
    for (_, word, _), coeff in expansion.terms():
        if coeff.denominator != 1:
            raise ValueError(f"{text} has the non-integral coefficient {coeff}")
        vector[word] = coeff.numerator
    klass = (word.count("E"), word.count("O"))
    return klass, _word_matrix([vector], _class_index(klass))[0]


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

    store = _Candidates(allowed)
    # Claim the narrative spellings first so they become the
    # representatives of their directions.
    curated: list[int] = []
    for text in sorted(_CURATED_TEXTS):
        tree = parse_expr(text)
        expansion = expand(tree, budget)
        if expansion.is_zero():
            continue
        klass, row = _expansion_row(expansion, text)
        if klass not in allowed:
            continue
        kind = {"comm": _COMM, "pow": _PRODUCT, "acomm": _ACOMM}[text[: text.index("(")]]
        curated.append(store.claim(text, kind, parity_and_order(tree)[1], klass, row))
    atoms: list[int] = []
    for text, word, kind in _ATOMS:
        klass = (word.count("E"), word.count("O"))
        if klass in allowed:
            # The class of a letter or a power of O has that one word.
            atoms.append(store.claim(text, kind, 0, klass, np.ones(1, dtype=np.int64)))

    # Round 1: brackets of atoms.  Round 2: brackets over everything so
    # far.  Rounds 3..5: one more atom layer each (padding and nesting).
    # The curated spellings ride along: they claimed their directions
    # above, so the new-direction rounds would otherwise never feed the
    # narrative's own commutators back into deeper nestings or products.
    round1 = store.brackets(atoms, atoms)
    pool = atoms + round1 + curated
    round2 = store.brackets(pool, pool)
    layer = round1 + round2 + curated
    # Each layer offers comm(a, x) and acomm(a, x) with their mirrored
    # spellings comm(x, a) and acomm(x, a), which bring no new direction.
    for _ in range(3):
        layer = store.brackets(atoms, layer, mirror=True)

    # Two-factor products of brackets (both factors carry order >= 1),
    # then one bracket layer around the products for padded squares.
    # The only powers among the rounds and the curated spellings are
    # curated pow(...) squares, and they stay out.
    bracket_pool = [c for c in round1 + round2 + curated if store.kinds[c] != _PRODUCT]
    products = store.products(bracket_pool, bracket_pool, keep=True)
    store.brackets(atoms, products, mirror=True)

    # Three-factor products: a two-factor product times one more small
    # bracket, on either side.  Needed so high-letter-count classes keep
    # full coverage at every grading order.
    small = [c for c in bracket_pool if sum(store.classes[c]) <= 3]
    store.products(products, small, keep=False)
    store.products(small, products, keep=False)

    # Every representative becomes an element: the basis is deliberately
    # overcomplete (see the module docstring).  Each class's rows go into
    # one read-only matrix that the elements view, and the class's
    # candidates go.
    by_class: dict[tuple[int, int], list[int]] = {}
    for cid in store.best.values():
        by_class.setdefault(store.classes[cid], []).append(cid)
    elements = []
    for (e_count, o_count), ids in by_class.items():
        matrix = store.rows((e_count, o_count), ids)
        del store.matrices[e_count, o_count]
        matrix.flags.writeable = False
        elements.extend(
            BasisElement(store.texts[c], store.kinds[c], store.orders[c], e_count, o_count, row)
            for c, row in zip(ids, matrix)
        )
    elements.sort(key=attrgetter("order", "e_count", "o_count", "text"))
    return BracketBasis(budget, elements, classes=classes)


def _strata(piece: AbstractExpr) -> dict[tuple[int, int], dict[str, Fraction]]:
    strata: dict[tuple[int, int], dict[str, Fraction]] = {}
    for (beta_exp, word, m_exp), coeff in piece.terms():
        strata.setdefault((beta_exp, m_exp), {})[word] = coeff
    return strata


_SPARSE_LIMIT = 3
_SUBSET_BUDGET = 300_000
# A subset block spans about this many (head, last column) cells; its
# determinants fill _BLOCK_BYTES in int64.
_SUBSET_BLOCK = _BLOCK_BYTES // 8


def _screen_projection(width: int) -> np.ndarray:
    """A fixed integer matrix P of shape (width, _SPARSE_LIMIT + 1), its
    entries in -15..15 drawn by the SplitMix64 hash of the cell index."""
    z = np.arange(1, width * (_SPARSE_LIMIT + 1) + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z % np.uint64(31)).astype(np.int64).reshape(width, -1) - 15


def _projected(matrix: np.ndarray, projection: np.ndarray) -> np.ndarray:
    """matrix @ projection, exactly: on Python integers when an entry could
    reach _INT64_BOUND."""
    if _magnitude(matrix) * _magnitude(projection) * matrix.shape[-1] >= _INT64_BOUND:
        matrix = matrix.astype(object)
    return matrix @ projection


def _determinants(blocks: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of small square integer matrices, as
    sums over permutations."""
    size = blocks.shape[-1]
    total = np.zeros(blocks.shape[:-2], dtype=blocks.dtype)
    for perm in permutations(range(size)):
        term = blocks[..., 0, perm[0]]
        for row in range(1, size):
            term = term * blocks[..., row, perm[row]]
        odd = sum(a > b for a, b in combinations(perm, 2)) % 2
        total = total - term if odd else total + term
    return total


def _span_candidates(images: np.ndarray, image: np.ndarray, size: int, total: int):
    """Yield, in blocks, the size-subsets among the first `total` of
    `combinations` order that the determinant test keeps.

    `images` holds each column times P and `image` the target times P, P
    cut to size + 1 columns.  If the columns of a subset S span the target,
    the rows of [S; t] are dependent, so det([S; t] P) = 0: a subset with a
    nonzero determinant cannot be the answer, and dropping it is exact.  A
    block holds the subsets that extend consecutive (size - 1)-subsets, the
    heads, by one later column.  The determinant is linear in that column,
    so one product of the heads' cofactor vectors with the images gives a
    whole block.  It runs on int64 unless a determinant could reach
    _INT64_BOUND, and then on Python integers.
    """
    n = len(images)
    every_head = combinations(range(n), size - 1)
    heads_per_block = max(1, _SUBSET_BLOCK // n)
    columns = np.arange(n)
    start = 0
    while start < total:
        heads = np.array(list(islice(every_head, heads_per_block)), dtype=np.intp)
        last = heads[:, -1] if size > 1 else np.full(len(heads), -1)
        counts = n - 1 - last
        live = columns > last[:, None]
        if start + counts.sum() > total:
            # The rank of each (head, column): heads' subsets follow each other.
            offsets = start + np.cumsum(counts) - counts
            ranks = offsets[:, None] + columns - last[:, None] - 1
            live &= ranks < total
        start += int(counts.sum())
        rows = np.concatenate(
            [images[heads], np.broadcast_to(image, (len(heads), 1, size + 1))], axis=1
        )
        bound = factorial(size + 1) * _magnitude(image) * _magnitude(images)
        if size > 1:
            bound *= _magnitude(rows[:, :-1]) ** (size - 1)
        kind = object if bound >= _INT64_BOUND else np.int64
        rows = rows.astype(kind)
        cofactors = np.stack(
            [
                (-1) ** (size + col) * _determinants(np.delete(rows, col, axis=2))
                for col in range(size + 1)
            ],
            axis=1,
        )
        determinants = cofactors @ images.T.astype(kind)
        head, column = np.nonzero(live & (determinants == 0))
        yield np.column_stack([heads[head], column])


def _sparse_solve(target: np.ndarray, columns: np.ndarray) -> tuple[int, ...] | None:
    """The first subset of at most _SPARSE_LIMIT columns (matrix rows) that
    is independent and spans the target.

    Subsets are tried smallest first, in `combinations` order, so ties
    resolve toward the column preference; the search gives up (None) after
    _SUBSET_BUDGET subsets, the ones the determinant test of
    `_span_candidates` drops included.  Linearly dependent subsets are
    skipped: their span equals that of a smaller subset already tried.  The
    subsets the test keeps are screened, in order, by batched eliminations
    of their columns with the target below them.
    """
    if not len(columns):
        return None
    used = np.flatnonzero((columns != 0).any(axis=0) | (target != 0))
    columns, target = columns[:, used], target[used]
    projection = _screen_projection(len(used))
    images, image = _projected(columns, projection), _projected(target, projection)
    left = _SUBSET_BUDGET
    for size in range(1, min(_SPARSE_LIMIT, len(columns)) + 1):
        total = min(comb(len(columns), size), left)
        for subsets in _span_candidates(images[:, : size + 1], image[: size + 1], size, total):
            found = _screen(subsets, columns, target)
            if found is not None:
                return found
        left -= total
        if not left:
            return None
    return None


def _screen(subsets: np.ndarray, columns: np.ndarray, target: np.ndarray) -> tuple[int, ...] | None:
    """The first subset whose columns are independent and span the target."""
    size = subsets.shape[1]
    chunk = max(1, _BLOCK_BYTES // ((size + 1) * columns.shape[1] * 8))
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


def _single_class(piece: AbstractExpr, what: str) -> tuple[int, int]:
    """The one class of a piece; ValueError naming `what` otherwise."""
    classes = piece.classify()
    if len(classes) != 1:
        raise ValueError(f"{what} wants a single class, got {sorted(classes)}")
    (klass,) = classes
    return klass


def project(piece: AbstractExpr, basis: BracketBasis, min_order: int) -> Projection:
    """Express a single-class operator over the basis elements of grading
    order >= min_order.

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
    klass = _single_class(piece, "projection")
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
    labels = basis.echelon(_single_class(piece, "certification")).last_used(
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
    min_order: int | None = None,
) -> DiffReport:
    """Per-class comparison of two even expansions (first minus second).

    Each differing class is spelled in brackets of order >= min_order
    when one is given, and is then not certified (its `hbar_order_min`
    is None).  Otherwise it is certified and spelled at its certified
    order, or at 0 when it is outside the span.  Without a basis, one is
    built for the differing classes only.
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
        certified = projection = None
        if not delta.is_zero():
            order = min_order
            if order is None:
                certified = min_hbar_order(delta, basis)
                order = certified or 0
            projection = project(delta, basis, order)
        status = "identical" if projection is None else "differs"
        rows.append(ClassDiff(e_count, o_count, status, certified, projection))
    return DiffReport(budget=budget, classes=tuple(rows))
