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
atoms, brackets of brackets, deeper atom nestings, two-factor products,
and one more bracket layer around the products.  Candidates that expand
to zero are dropped; candidates whose expansions are parallel collapse
onto one representative (the highest-order label wins, so the span per
order cutoff is never understated).  Every surviving direction becomes
a basis element: the collection is deliberately redundant, because
different bracket spellings of the same content are exactly what the
agreement narrative trades in.  Building the basis does no elimination.

Elimination.  One exact sparse kernel, `_Echelon`, does every
elimination in this module.  Each class gets one echelon, built the
first time a caller asks for that class: its elements are inserted from
high nominal order to low, and each one already spanned by those before
it is recorded with its exact relation, e.g. acomm(O, comm(comm(O, E),
E)) = comm(comm(pow(O, 2), E), E) - 2 pow(comm(O, E), 2).

Projection.  A single-class operator is split into (beta, m) strata;
each stratum is a rational vector over the class words.  Certification
is one reduction per stratum against the class echelon: because its
rows were inserted from high order to low, the weights over the
independent elements are unique, and the lowest order among them is
the certified minimum order.  Projection spells a stratum in as few
elements as it can, preferring low order first, then the listing order.
Whatever cannot be expressed is returned verbatim as a residual, and
reconstruction (entries plus residual) is exact by construction.
Because the columns are redundant, reports project at the certified
minimum order, which keeps low-order spellings out of a difference that
certifies higher.

Beta and mass bookkeeping: basis expansions are pure words.  The beta
and m content of the projected operator is uniform within a stratum, so
it is factored out and reported per combination entry rather than being
folded into the basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction
from typing import Iterator, Sequence

from fwforge.lang import format_term, format_tree, term_strings
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


def _letter_counts(expansion: AbstractExpr) -> tuple[int, int]:
    (_, word, _), _ = expansion.terms()[0]
    return (word.count("E"), len(word) - word.count("E"))


def _word_vector(expansion: AbstractExpr) -> dict[str, Fraction]:
    return {word: coeff for (_, word, _), coeff in expansion.terms()}


_ZERO = Fraction(0)


def _axpy(target: dict, scale: Fraction, source: dict) -> None:
    """target += scale * source, dropping entries that cancel."""
    for key, value in source.items():
        updated = target.get(key, _ZERO) + scale * value
        if updated:
            target[key] = updated
        else:
            target.pop(key, None)


class _Echelon:
    """Exact sparse row echelon over word vectors, with row provenance.

    Rows are kept in insertion order as (pivot word, vector, combo), where
    the pivot is the least word left after reduction and the combo is the
    row's combination over the inserted labels:
    vector == sum(combo[label] * inserted vector of label).  Each row is
    reduced against every earlier one, so one pass in order clears all
    pivots.
    """

    def __init__(self):
        self._rows: list[tuple[str, dict[str, Fraction], dict]] = []

    def reduce(self, vector: dict[str, Fraction]) -> tuple[dict[str, Fraction], dict]:
        """(remainder, weights) with vector == remainder + sum(weights[l] * vector of l)."""
        remainder = dict(vector)
        weights: dict = {}
        for pivot, row_vector, row_combo in self._rows:
            factor = remainder.get(pivot)
            if not factor:
                continue
            scale = factor / row_vector[pivot]
            _axpy(remainder, -scale, row_vector)
            _axpy(weights, scale, row_combo)
        return remainder, weights

    def insert(self, label, vector: dict[str, Fraction]) -> dict | None:
        """Add a labelled vector: None when it is independent of the rows so
        far, else its exact weights over the earlier labels (no row added)."""
        remainder, weights = self.reduce(vector)
        if not remainder:
            return weights
        combo = {name: -value for name, value in weights.items()}
        combo[label] = Fraction(1)
        self._rows.append((min(remainder), remainder, combo))
        return None


class BracketBasis:
    """Ordered admitted elements; per-class echelons are built on first use."""

    def __init__(self, budget: Budget, elements: Sequence[BasisElement]):
        self.budget = budget
        self.elements = tuple(elements)
        self._by_class: dict[tuple[int, int], list[BasisElement]] = {}
        self._by_text: dict[str, BasisElement] = {}
        self._scans: dict[tuple[int, int], tuple[_Echelon, list[Dependency]]] = {}
        for element in self.elements:
            self._by_class.setdefault(element.klass, []).append(element)
            self._by_text[element.text] = element

    def _scan(self, klass: tuple[int, int]) -> tuple[_Echelon, list[Dependency]]:
        """The class echelon and its dependencies, built on first use.

        Elements go in from high order to low (commutators before powers
        before anticommutators, then text); each one already spanned by
        those before it becomes a Dependency with its exact relation.
        """
        scan = self._scans.get(klass)
        if scan is None:
            echelon = _Echelon()
            dependencies: list[Dependency] = []
            for element in sorted(
                self.class_elements(*klass),
                key=lambda el: (-el.order, _kind_rank(el.tree), el.text),
            ):
                members = echelon.insert(element.text, _word_vector(element.expansion))
                if members is not None:
                    dependencies.append(
                        Dependency(
                            text=element.text,
                            tree=element.tree,
                            order=element.order,
                            e_count=element.e_count,
                            o_count=element.o_count,
                            members=tuple(sorted(members.items())),
                        )
                    )
            scan = self._scans[klass] = (echelon, dependencies)
        return scan

    def echelon(self, klass: tuple[int, int]) -> _Echelon:
        return self._scan(klass)[0]

    @property
    def dependencies(self) -> tuple[Dependency, ...]:
        """Every element spanned by the higher-order ones of its class."""
        found = [dep for klass in self.classes() for dep in self._scan(klass)[1]]
        found.sort(key=lambda dep: (dep.order, (dep.e_count, dep.o_count), dep.text))
        return tuple(found)

    def class_elements(self, e_count: int, o_count: int) -> tuple[BasisElement, ...]:
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


def _curated_trees() -> frozenset[BracketExpr]:
    """Preferred spellings for directions the narrative names explicitly."""
    o, e = Gen("O"), Gen("E")
    o2, o4 = PowN(o, 2), PowN(o, 4)
    c_oe = Comm(o, e)
    c_o2e = Comm(o2, e)
    c_ooe = Comm(o, c_oe)
    c_oee = Comm(c_oe, e)
    c_o2ee = Comm(c_o2e, e)
    return frozenset(
        {
            c_oe,
            c_o2e,
            c_ooe,
            c_oee,
            c_o2ee,
            Comm(o2, c_oe),
            Comm(o2, c_o2e),
            PowN(c_oe, 2),
            PowN(c_o2e, 2),
            Acomm(o, c_oee),
            Acomm(o2, c_ooe),
            Acomm(o4, c_ooe),
            Acomm(o2, c_o2ee),
            Acomm(o2, PowN(c_oe, 2)),
            Acomm(o2, Comm(o2, c_o2e)),
            Comm(o2, Comm(o2, c_ooe)),
            Comm(o, Comm(o, c_o2ee)),
            Comm(Comm(o, Comm(o, c_o2e)), e),
            Comm(o2, Comm(o, c_oee)),
            Comm(o, Comm(c_oee, e)),
        }
    )


@dataclass
class _Candidate:
    tree: BracketExpr
    order: int
    expansion: AbstractExpr


class _DirectionTable:
    """Candidates grouped by expansion direction (parallel vectors)."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.curated = _curated_trees()
        # direction key -> (reference expansion, best candidate, parallels)
        self._groups: dict[tuple, list] = {}

    @staticmethod
    def _direction_key(expansion: AbstractExpr) -> tuple[tuple, Fraction]:
        terms = expansion.terms()
        lead = terms[0][1]
        key = tuple((word, coeff / lead) for (_, word, _), coeff in terms)
        return key, lead

    def _preference(self, candidate: _Candidate) -> tuple:
        text = format_tree(candidate.tree)
        return (
            candidate.order,
            candidate.tree in self.curated,
            -len(text),
            tuple(-ord(ch) for ch in text),
        )

    def offer(self, tree: BracketExpr, expansion: AbstractExpr) -> bool:
        """Record a candidate; True when its direction is new."""
        if expansion.is_zero():
            return False
        parity, order = parity_and_order(tree)
        if parity == "mixed" or order is None:
            return False
        key, _ = self._direction_key(expansion)
        candidate = _Candidate(tree, order, expansion)
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = [candidate, [candidate]]
            return True
        group[1].append(candidate)
        if self._preference(candidate) > self._preference(group[0]):
            group[0] = candidate
        return False

    def representatives(self) -> Iterator[_Candidate]:
        for best, _ in self._groups.values():
            yield best


def _bracket_candidates(
    table: _DirectionTable,
    lefts: Sequence[_Candidate],
    rights: Sequence[_Candidate],
    budget: Budget,
) -> list[_Candidate]:
    """Offer comm/acomm of every admissible pair; return the new directions."""
    fresh: list[_Candidate] = []
    seen_acomm: set[tuple[int, int]] = set()
    for i, left in enumerate(lefts):
        left_e, left_o = _letter_counts(left.expansion)
        for j, right in enumerate(rights):
            if left.tree == right.tree:
                continue
            right_e, right_o = _letter_counts(right.expansion)
            if left_e + right_e > budget.max_e_count:
                continue
            if left_e + right_e + left_o + right_o > budget.max_word_len:
                continue
            comm_exp = left.expansion.commutator(right.expansion, budget)
            if table.offer(Comm(left.tree, right.tree), comm_exp):
                fresh.append(_Candidate(Comm(left.tree, right.tree), 0, comm_exp))
            pair = (min(i, j), max(i, j)) if lefts is rights else (i, j)
            if pair in seen_acomm:
                continue
            seen_acomm.add(pair)
            acomm_exp = left.expansion.anticommutator(right.expansion, budget)
            if table.offer(Acomm(left.tree, right.tree), acomm_exp):
                fresh.append(_Candidate(Acomm(left.tree, right.tree), 0, acomm_exp))
    # Orders in the returned stubs are unused; the table recomputes them.
    return fresh


def build_basis(budget: Budget | int, max_e_count: int | None = None) -> BracketBasis:
    """Deterministic bracket basis for every class inside the budget."""
    if isinstance(budget, int):
        if max_e_count is None:
            raise ValueError("pass a Budget or both word and E limits")
        budget = Budget(budget, max_e_count)

    table = _DirectionTable(budget)
    # Claim the narrative spellings first so they become the
    # representatives of their directions.
    curated_candidates: list[_Candidate] = []
    for tree in sorted(table.curated, key=format_tree):
        expansion = expand(tree, budget)
        table.offer(tree, expansion)
        if not expansion.is_zero():
            _, order = parity_and_order(tree)
            curated_candidates.append(_Candidate(tree, order, expansion))
    atom_candidates: list[_Candidate] = []
    for atom in _atoms():
        expansion = _expand_atom(atom, budget)
        if expansion.is_zero():
            continue
        table.offer(atom, expansion)
        atom_candidates.append(_Candidate(atom, 0, expansion))

    # Round 1: brackets of atoms.  Round 2: brackets over everything so
    # far.  Rounds 3..5: one more atom layer each (padding and nesting).
    # The curated spellings ride along: they claimed their directions
    # above, so the new-direction rounds would otherwise never feed the
    # narrative's own commutators back into deeper nestings or products.
    round1 = _bracket_candidates(table, atom_candidates, atom_candidates, budget)
    pool = atom_candidates + round1 + curated_candidates
    round2 = _bracket_candidates(table, pool, pool, budget)
    layer = round1 + round2 + curated_candidates
    for _ in range(3):
        grown = _bracket_candidates(table, atom_candidates, layer, budget)
        grown += _bracket_candidates(table, layer, atom_candidates, budget)
        layer = grown

    # Two-factor products of brackets (both factors carry order >= 1),
    # then one bracket layer around the products for padded squares.
    bracket_pool = [
        c
        for c in (round1 + round2 + curated_candidates)
        if not isinstance(c.tree, PowN)
    ]
    products: list[_Candidate] = []
    for left in bracket_pool:
        left_e, left_o = _letter_counts(left.expansion)
        for right in bracket_pool:
            right_e, right_o = _letter_counts(right.expansion)
            if left_e + right_e > budget.max_e_count:
                continue
            if left_e + right_e + left_o + right_o > budget.max_word_len:
                continue
            if left.tree == right.tree:
                tree: BracketExpr = PowN(left.tree, 2)
            else:
                tree = Prod((left.tree, right.tree))
            expansion = left.expansion.mul(right.expansion, budget)
            table.offer(tree, expansion)
            products.append(_Candidate(tree, 0, expansion))
    _bracket_candidates(table, atom_candidates, products, budget)
    _bracket_candidates(table, products, atom_candidates, budget)

    # Three-factor products: a two-factor product times one more small
    # bracket, on either side.  Needed so high-letter-count classes keep
    # full coverage at every grading order.
    small = [
        c
        for c in bracket_pool
        if sum(_letter_counts(c.expansion)) <= 3
    ]
    for middle in products:
        mid_e, mid_o = _letter_counts(middle.expansion)
        for extra in small:
            extra_e, extra_o = _letter_counts(extra.expansion)
            if mid_e + extra_e > budget.max_e_count:
                continue
            if mid_e + extra_e + mid_o + extra_o > budget.max_word_len:
                continue
            for tree, expansion in (
                (
                    Prod((middle.tree, extra.tree)),
                    middle.expansion.mul(extra.expansion, budget),
                ),
                (
                    Prod((extra.tree, middle.tree)),
                    extra.expansion.mul(middle.expansion, budget),
                ),
            ):
                table.offer(tree, expansion)

    # Every representative becomes an element: the basis is deliberately
    # overcomplete (see the module docstring).
    elements = []
    for best in table.representatives():
        e_count, o_count = _letter_counts(best.expansion)
        elements.append(
            BasisElement(
                text=format_tree(best.tree),
                tree=best.tree,
                order=best.order,
                e_count=e_count,
                o_count=o_count,
                expansion=best.expansion,
            )
        )
    elements.sort(key=lambda el: (el.order, el.klass, el.text))
    return BracketBasis(budget, elements)


def _expand_atom(atom: BracketExpr, budget: Budget) -> AbstractExpr:
    if isinstance(atom, Gen):
        word = atom.letter
    else:
        word = "O" * atom.n
    if len(word) > budget.max_word_len:
        return AbstractExpr.zero()
    if word == "E" and budget.max_e_count < 1:
        return AbstractExpr.zero()
    if len(word) == 1:
        return AbstractExpr.generator(word)
    return AbstractExpr.from_terms([((0, word, 0), Fraction(1))])


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
    echelon = _Echelon()
    for index, element in enumerate(columns):
        echelon.insert(index, _word_vector(element.expansion))
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
    equals that of a smaller subset already tried.
    """
    col_vectors = [_word_vector(element.expansion) for element in columns]
    col_supports = [frozenset(vec) for vec in col_vectors]
    target_support = frozenset(vector)
    budget = 300_000
    for size in range(1, _SPARSE_LIMIT + 1):
        if size > len(columns):
            break
        for subset in combinations(range(len(columns)), size):
            budget -= 1
            if budget < 0:
                return None
            covered: set[str] = set()
            for index in subset:
                covered |= col_supports[index]
            if not target_support <= covered:
                continue
            echelon = _Echelon()
            if any(echelon.insert(index, col_vectors[index]) is not None for index in subset):
                continue
            remainder, weights = echelon.reduce(vector)
            if not remainder:
                return weights
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
    curated = _curated_trees()
    columns = sorted(
        (
            element
            for element in basis.class_elements(*klass)
            if element.order >= min_order
        ),
        key=lambda el: (
            el.order,
            el.tree not in curated,
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

    One reduction per stratum against the class echelon.  Its rows were
    inserted from high order to low, so a stratum's weights over the
    independent elements are unique, and the stratum lies in
    span(order >= h) exactly when every weighted element has order >= h.
    None when some stratum is not even in the full admitted span.
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
        remainder, weights = echelon.reduce(vector)
        if remainder:
            return None
        orders.extend(basis.element(text).order for text in weights)
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


def diff_report(
    h_first: AbstractExpr,
    h_second: AbstractExpr,
    budget: Budget,
    basis: BracketBasis | None = None,
) -> DiffReport:
    """Per-class comparison of two even expansions (first minus second)."""
    if basis is None:
        basis = build_basis(budget)
    classes = sorted(set(h_first.classify()) | set(h_second.classify()))
    rows = []
    for e_count, o_count in classes:
        first = h_first.restrict_class(e_count, o_count)
        second = h_second.restrict_class(e_count, o_count)
        delta = first.sub(second)
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
    diff: AbstractExpr, basis: BracketBasis, min_order: int
) -> tuple[str, list[dict]]:
    """Spell every class of a difference in brackets of order >= min_order.

    Returns "pass" when every class is explained and "fail" otherwise,
    with one row per class, smallest class first: its e and o counts, its
    status ("explained" or "unexplained"), the weighted brackets as
    `delta_brackets`, and, when the brackets leave a residual, its terms
    as `unexplained`.
    """
    status = "pass"
    rows = []
    for (e_count, o_count), piece in sorted(diff.classify().items()):
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
