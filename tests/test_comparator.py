"""Tests for the bracket-basis builder, exact projection, and the
class-by-class comparison report.

Frozen presentation entries were verified against an independent
free-word oracle (and, for the dependency records, by brute-force
re-expansion) before being pinned here.
"""

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwforge import comparator
from fwforge.comparator import (
    _CURATED_TEXTS,
    _SPARSE_LIMIT,
    _SUBSET_BUDGET,
    _eliminate,
    _integral,
    _solve,
    _sparse_solve,
    _word_matrix,
    build_basis,
    diff_report,
    min_hbar_order,
    project,
)
from fwforge.eriksen import CLOSED_FORM_ORDER2
from fwforge.ncalg import (
    AbstractExpr,
    Acomm,
    BetaF,
    Budget,
    Comm,
    Gen,
    MPow,
    PowN,
    Prod,
    Rat,
    Sum,
    expand,
    parity_and_order,
)
from fwforge.lang import parse_expr
from fwforge.stepwise import DISPLAYED
from oracles import (
    all_elements,
    class_rows,
    dependencies,
    direction,
    element,
    expansion,
    format_tree,
    insertion_order,
    reconstruct,
    restrict_class,
    word_vector,
)
from oracles import combine as _combine
from oracles import word_brackets as _word_brackets
from oracles import word_product as _word_product

O = Gen("O")
E = Gen("E")
O2 = PowN(O, 2)


def sc(q, *factors):
    return Prod((Rat(Fraction(q)),) + tuple(factors))


def _kind_rank(tree):
    """The kind rank a bracket tree's outermost node gives: commutators,
    then powers and products, then anticommutators, then letters."""
    if isinstance(tree, Comm):
        return 0
    if isinstance(tree, (PowN, Prod)):
        return 1
    if isinstance(tree, Acomm):
        return 2
    return 3


# -- basis construction -----------------------------------------------------------


def test_small_basis_contains_double_commutator():
    basis = build_basis(Budget(3, 1))
    el = element(basis, "comm(O, comm(O, E))")
    assert el.order == 1
    assert (el.e_count, el.o_count) == (1, 2)


def test_curated_texts_are_canonical():
    for text in _CURATED_TEXTS:
        assert format_tree(parse_expr(text)) == text


def test_diff_report_at_an_order_builds_the_basis_for_the_differing_classes():
    budget = Budget(3, 1)
    diff = expand(sc(Fraction(1, 2), MPow(-2), Comm(O, Comm(O, E))), budget)
    (row,) = diff_report(diff, AbstractExpr.zero(), budget, min_order=1).classes
    assert (row.e_count, row.o_count, row.status, row.hbar_order_min) == (1, 2, "differs", None)
    assert [(e.bracket, e.weight, e.m_exp) for e in row.projection.entries] == [
        ("comm(O, comm(O, E))", Fraction(1, 2), -2)
    ]
    assert row.projection.residual.is_zero()
    (row,) = diff_report(diff, AbstractExpr.zero(), budget, min_order=2).classes
    assert not row.projection.residual.is_zero()
    assert diff_report(AbstractExpr.zero(), AbstractExpr.zero(), budget, min_order=2).classes == ()


def test_order_two_pair(basis42):
    assert element(basis42, "pow(comm(O, E), 2)").order == 2
    assert element(basis42, "comm(comm(pow(O, 2), E), E)").order == 2


def test_recorded_dependency_for_padded_spelling(basis42):
    dep = {d.text: d for d in dependencies(basis42)}["acomm(O, comm(comm(O, E), E))"]
    assert dep.members == (
        ("comm(comm(pow(O, 2), E), E)", Fraction(1)),
        ("pow(comm(O, E), 2)", Fraction(-2)),
    )


def test_all_small_basis_dependencies_reexpand_exactly(basis42):
    budget = Budget(4, 2)
    assert dependencies(basis42)
    for dep in dependencies(basis42):
        total = AbstractExpr.zero()
        for text, weight in dep.members:
            total = total.add(expansion(element(basis42, text)).scale(weight))
        assert expand(parse_expr(dep.text), budget).sub(total).is_zero(), dep.text


def test_sampled_full_basis_dependencies_reexpand_exactly(basis83, budget83):
    deps = dependencies(basis83)[::97]
    assert deps
    for dep in deps:
        total = AbstractExpr.zero()
        for text, weight in dep.members:
            total = total.add(expansion(element(basis83, text)).scale(weight))
        assert expand(parse_expr(dep.text), budget83).sub(total).is_zero(), dep.text


def test_full_basis_shape_is_frozen(basis83, budget83):
    assert len(all_elements(basis83)) == 6208
    assert len(basis83) == 6208
    assert len(build_basis(budget83, classes=DIFFERING_83)) == 3530
    assert len(dependencies(basis83)) == 5956


def test_element_texts_are_unique(basis83):
    texts = [el.text for el in all_elements(basis83)]
    assert len(set(texts)) == len(texts)


def test_listing_order_and_determinism():
    first = build_basis(Budget(5, 2))
    second = build_basis(Budget(5, 2))
    keys = [(el.order, el.klass, el.text) for el in all_elements(first)]
    assert keys == [(el.order, el.klass, el.text) for el in all_elements(second)]
    assert [d.text for d in dependencies(first)] == [d.text for d in dependencies(second)]


def test_elements_store_exact_unmixed_expansions(basis42):
    for element in all_elements(basis42):
        words = {word for (_, word, _), _ in expansion(element).terms()}
        assert words, element.text
        parities = {(len(w) - w.count("E")) % 2 for w in words}
        assert len(parities) == 1, element.text


def test_elements_agree_with_their_trees():
    """Each element's text parses to a tree that formats back to it, and
    the order, vector and kind built alongside the text are the ones that
    tree gives (products and three-factor products included)."""
    budget = Budget(6, 2)
    for element in all_elements(build_basis(budget)):
        tree = parse_expr(element.text)
        assert format_tree(tree) == element.text
        assert element.order == parity_and_order(tree)[1], element.text
        assert expansion(element) == expand(tree, budget), element.text
        assert element.kind == _kind_rank(tree), element.text


def _listing(elements):
    return [
        (el.text, el.order, el.klass, word_vector(el), expansion(el).terms())
        for el in elements
    ]


def _closure(elements, classes):
    return [
        el for el in elements if any(el.e_count <= e and el.o_count <= o for e, o in classes)
    ]


def test_partial_basis_is_the_full_basis_on_each_closure_at_6_2():
    budget = Budget(6, 2)
    full = build_basis(budget)
    for klass in [(e, o) for e in range(3) for o in range(7 - e)]:
        partial = build_basis(budget, classes=[klass])
        expected = _closure(all_elements(full), [klass])
        assert _listing(all_elements(partial)) == _listing(expected), klass


DIFFERING_83 = [(1, 4), (1, 6), (2, 2), (2, 4), (2, 6), (3, 2), (3, 4)]


def test_partial_basis_for_the_differing_classes_at_8_3(basis83, budget83):
    partial = build_basis(budget83, classes=DIFFERING_83)
    expected = _closure(all_elements(basis83), DIFFERING_83)
    assert len(partial) == len(expected) == 3530
    assert _listing(all_elements(partial)) == _listing(expected)


def test_partial_basis_refuses_classes_outside_its_closure():
    budget = Budget(6, 2)
    basis = build_basis(budget, classes=[(1, 2)])
    assert basis.class_elements(1, 2)
    assert all(el.klass == (0, 2) for el in basis.class_elements(0, 2))
    piece = expand(Comm(O2, Comm(O2, E)), budget)
    queries = {
        "class_elements": lambda: basis.class_elements(1, 4),
        "min_hbar_order": lambda: min_hbar_order(piece, basis),
        "project": lambda: project(piece, basis, 2),
    }
    for name, query in queries.items():
        with pytest.raises(ValueError, match=r"class \(1, 4\)"):
            query()
    with pytest.raises(ValueError, match=r"class \(2, 1\)"):
        basis.class_elements(2, 1)
    # A full basis still answers every class, inside the budget or not.
    assert build_basis(Budget(3, 1)).class_elements(2, 4) == ()


def test_class_rows_hold_the_elements_in_projection_order(basis83):
    """A class's elements run lower order first, then the curated
    spellings, then the kind rank and the text, and `class_rows` is the one
    read-only int64 matrix, in that order, that their rows view."""
    for klass in basis83.classes():
        elements = basis83.class_elements(*klass)
        assert list(elements) == sorted(
            elements, key=lambda el: (el.order, el.text not in _CURATED_TEXTS, el.kind, el.text)
        ), klass
        rows = basis83.class_rows(klass)
        assert rows.dtype == np.int64 and not rows.flags.writeable
        assert rows.shape == (len(elements), len(comparator._class_words(klass)))
        for element, row in zip(elements, rows):
            assert element.row.base is rows and (element.row == row).all(), element.text


@st.composite
def _class_word_sums(draw):
    """A nonzero integer sum of distinct words of one (E, O) class."""
    e_count = draw(st.integers(0, 2))
    o_count = draw(st.integers(0 if e_count else 1, 3))
    letters = "E" * e_count + "O" * o_count
    words = draw(
        st.lists(st.permutations(letters).map("".join), min_size=1, max_size=4, unique=True)
    )
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(words), max_size=len(words)))
    return dict(zip(words, coeffs))


def _as_expr(vector):
    return AbstractExpr({(0, word, 0): Fraction(coeff) for word, coeff in vector.items()})


@given(left=_class_word_sums(), right=_class_word_sums())
@settings(max_examples=200, deadline=None)
def test_integer_word_helpers_match_the_algebra(left, right):
    """Under the budget the pair's class just fits, the integer helpers
    agree with AbstractExpr's product and brackets, and keep no zeros."""
    word = next(iter(left)) + next(iter(right))
    budget = Budget(len(word), word.count("E"))
    a, b = _as_expr(left), _as_expr(right)
    product = _word_product(left, right)
    comm, acomm = _word_brackets(left, right)
    for vector in (product, comm, acomm):
        assert all(vector.values())
    assert _as_expr(product) == a.mul(b, budget)
    assert _as_expr(comm) == a.commutator(b, budget)
    assert _as_expr(acomm) == a.anticommutator(b, budget)


@st.composite
def _class_rows(draw):
    """A class and a few integer word vectors of it, as rows over its words."""
    e_count = draw(st.integers(0, 2))
    klass = (e_count, draw(st.integers(0 if e_count else 1, 3)))
    vectors = draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(comparator._class_words(klass)),
                st.integers(-3, 3).filter(bool),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        )
    )
    return klass, vectors, _word_matrix(vectors, comparator._class_index(klass))


@pytest.mark.parametrize(
    "block", [comparator._BLOCK_BYTES, 64], ids=["int64", "int64-small-blocks"]
)
@given(left=_class_rows(), right=_class_rows())
@settings(max_examples=100, deadline=None)
def test_batched_products_match_the_dict_oracles(block, left, right):
    """The rows a pass over two candidate lists builds, products,
    commutators and anticommutators pair by pair in row-major order, and
    the direction keys of those rows agree with the dict oracles.  Every
    block is int64, and with small blocks the pairs are split."""
    (left_class, left_vectors, lefts), (right_class, right_vectors, rights) = left, right
    klass = (left_class[0] + right_class[0], left_class[1] + right_class[1])
    words = comparator._class_words(klass)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(comparator, "_BLOCK_BYTES", block)
        store = comparator._Candidates(frozenset({klass}))
        left_ids = [store.claim(f"l{n}", 0, 0, left_class, row) for n, row in enumerate(lefts)]
        right_ids = [store.claim(f"r{n}", 0, 0, right_class, row) for n, row in enumerate(rights)]
        product_blocks, bracket_blocks = (
            list(store._blocks(left_ids, right_ids, brackets)) for brackets in (False, True)
        )
        arrays = [part for _, _, _, *parts in bracket_blocks + product_blocks for part in parts]
        rows = np.concatenate(arrays)
        live = rows[(rows != 0).any(axis=1)]
        keys = comparator._direction_keys(klass, live)
    assert all(array.dtype == np.int64 for array in arrays)

    def as_dict(row):
        return {words[col]: int(row[col]) for col in np.flatnonzero(row)}

    pairs = [(i, j) for i in range(len(lefts)) for j in range(len(rights))]
    for blocks in (product_blocks, bracket_blocks):
        assert [(int(i), int(j)) for _, i_s, j_s, *_ in blocks for i, j in zip(i_s, j_s)] == pairs
    products = [as_dict(row) for _, _, _, block in product_blocks for row in block]
    comms = [as_dict(row) for _, _, _, block, _ in bracket_blocks for row in block]
    acomms = [as_dict(row) for _, _, _, _, block in bracket_blocks for row in block]
    for (i, j), product, comm, acomm in zip(pairs, products, comms, acomms):
        assert product == _word_product(left_vectors[i], right_vectors[j])
        assert (comm, acomm) == _word_brackets(left_vectors[i], right_vectors[j])

    # Keys are equal exactly where the oracle directions are, and each
    # holds the class and the oracle's reduced vector.
    directions = [direction(as_dict(row)) for row in live]
    for key, expected in zip(keys, directions):
        coded = np.frombuffer(key, dtype=np.int64)
        assert coded[0] == klass[0] << 32 | klass[1]
        assert tuple(as_dict(coded[1:]).items()) == expected
    assert len(set(keys)) == len(set(directions))
    assert len(set(zip(keys, directions))) == len(set(keys))


def test_blocks_refuse_entries_that_could_pass_int64():
    """Two rows whose products could pass int64 raise instead of wrapping."""
    store = comparator._Candidates(frozenset({(1, 1)}))
    big = 1 << 31
    left = store.claim("l", 0, 0, (1, 0), np.array([big]))
    right = store.claim("r", 0, 0, (0, 1), np.array([-big]))
    for brackets in (False, True):
        with pytest.raises(OverflowError, match="pass int64"):
            list(store._blocks([left], [right], brackets))


@pytest.mark.parametrize("max_len, max_e", [(8, 3), (9, 3)])
def test_element_rows_are_int64_within_the_atom_bound(max_len, max_e, basis83):
    """A row's L1 norm is at most 2**(atoms - 1), and an element has no more
    atoms than letters."""
    basis = basis83 if (max_len, max_e) == (8, 3) else build_basis(Budget(max_len, max_e))
    for element in all_elements(basis):
        assert element.row.dtype == np.int64, element.text
        norm = int(np.abs(element.row).sum())
        assert norm <= 1 << (element.e_count + element.o_count - 1), element.text


# sha256 over the elements in listing order of json [text, kind, order, e,
# o, sorted word vector] lines, as the dict-based builder that the
# per-class rows replaced produced them, with the number of elements.
_ELEMENT_DIGESTS = {
    (5, 2, None): (129, "54551d09b4e091d82c08ae4d9333857687e203b8b1cf58e43dfd9c916447b787"),
    (5, 2, ((1, 4), (2, 2))): (
        56, "38f36efc2568c2e2358505675e418e9876c141547b05163eefa031ce803ce7da",
    ),
    (6, 2, None): (387, "823cee539ed09c27e9f3e7e247dcea110b7147f300aaf4ca5966ec19509c57e5"),
    (6, 2, ((1, 4), (2, 2), (2, 4))): (
        353, "d31d2cd502c912a6b4eff78af64e7223a2af642802abdd5c1ff0b349854bf00c",
    ),
    (8, 3, None): (6208, "ea873a2aee630c17e62e3cbec6c3b4c46717c5807bdd8ced86d8aa49b936afd3"),
    (8, 3, tuple(DIFFERING_83)): (
        3530, "452b547056b6a799f14309a3f58150a0f34c83dcfc1015a15f7a378fef413c27",
    ),
    (9, 3, None): (14159, "568e70c96c370af1e1d274441305c98a7a17dc5d4b1a3e450794c7f307be4bdc"),
    (9, 3, ((1, 4), (1, 6), (1, 8), (2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 6))): (
        11942, "6ae93df5b45603b30348446f4456fb6b940f30e40761aad9092c5233ceba3afa",
    ),
}


def _element_digest(basis) -> tuple[int, str]:
    digest = hashlib.sha256()
    for el in all_elements(basis):
        vector = sorted(word_vector(el).items())
        line = [el.text, el.kind, el.order, el.e_count, el.o_count, vector]
        digest.update(json.dumps(line).encode() + b"\n")
    return len(basis), digest.hexdigest()


@pytest.mark.parametrize("max_len, max_e, classes", list(_ELEMENT_DIGESTS))
def test_elements_match_the_dict_builder(max_len, max_e, classes):
    basis = build_basis(Budget(max_len, max_e), classes=classes)
    assert _element_digest(basis) == _ELEMENT_DIGESTS[max_len, max_e, classes]


def test_elements_do_not_depend_on_the_block_size(monkeypatch):
    """With 64-byte blocks the pairs of most class pairs are split over
    many blocks in every pass of the build, and the basis is the same."""
    monkeypatch.setattr(comparator, "_BLOCK_BYTES", 64)
    basis = build_basis(Budget(6, 2))
    assert _element_digest(basis) == _ELEMENT_DIGESTS[6, 2, None]


# -- projection -------------------------------------------------------------------


def test_project_basis_member_onto_itself(basis83, budget83):
    piece = expand(Comm(O, Comm(O, E)), budget83)
    result = project(piece, basis83, 1)
    assert [(e.element.text, e.weight, e.m_exp) for e in result.entries] == [
        ("comm(O, comm(O, E))", Fraction(1), 0)
    ]
    assert result.residual.is_zero()
    assert reconstruct(result).sub(piece).is_zero()


def test_project_zero(basis83):
    result = project(AbstractExpr.zero(), basis83, 0)
    assert result.entries == ()
    assert result.residual.is_zero()


def test_project_rejects_mixed_classes(basis83, budget83):
    mixed = expand(Comm(O, Comm(O, E)), budget83).add(
        expand(PowN(Comm(O, E), 2), budget83)
    )
    with pytest.raises(ValueError):
        project(mixed, basis83, 0)


def test_quartic_display_difference_projects_onto_three_brackets(basis83, budget83):
    """The two displayed quartic-class blocks differ by an exact
    three-bracket combination with zero residual."""
    mine = restrict_class(expand(parse_expr(CLOSED_FORM_ORDER2), budget83), 2, 4)
    other = restrict_class(expand(parse_expr(DISPLAYED), budget83), 2, 4)
    result = project(mine.sub(other), basis83, 2)
    assert [(e.element.text, e.weight, e.beta_exp, e.m_exp) for e in result.entries] == [
        ("pow(comm(pow(O, 2), E), 2)", Fraction(-19, 256), 1, -5),
        ("acomm(pow(O, 2), comm(comm(pow(O, 2), E), E))", Fraction(-7, 128), 1, -5),
        ("acomm(pow(O, 2), pow(comm(O, E), 2))", Fraction(3, 32), 1, -5),
    ]
    assert result.residual.is_zero()
    assert reconstruct(result).sub(mine.sub(other)).is_zero()


def test_min_order_filter_restricts_vocabulary(basis83, budget83):
    piece = expand(
        sc(Fraction(9, 1024), MPow(-6), Comm(O2, Comm(O2, Comm(O, Comm(O, E))))),
        budget83,
    )
    assert min_hbar_order(piece, basis83) == 3
    result = project(piece, basis83, min_order=3)
    assert [(e.element.text, e.weight) for e in result.entries] == [
        ("comm(pow(O, 2), comm(pow(O, 2), comm(O, comm(O, E))))", Fraction(9, 1024))
    ]
    assert result.residual.is_zero()


def test_certification_of_simple_brackets(basis83, budget83):
    assert min_hbar_order(expand(Comm(O, Comm(O, E)), budget83), basis83) == 1
    assert (
        min_hbar_order(expand(Comm(Comm(O2, E), E), budget83), basis83) == 2
    )


def _strata(piece):
    """The piece's (beta, m) strata, each as an expression, by (beta, m)."""
    strata = {}
    for (beta_exp, word, m_exp), coeff in piece.terms():
        strata.setdefault((beta_exp, m_exp), []).append(((beta_exp, word, m_exp), coeff))
    return {stratum: AbstractExpr.from_terms(terms) for stratum, terms in sorted(strata.items())}


def test_certificate_is_the_lowest_over_the_strata(basis83, budget83):
    """Each (beta, m) stratum certifies on its own, and the lowest of their
    orders is the caller's to take: a piece of two strata is refused by
    both queries, with its strata named."""
    low = expand(Acomm(E, Comm(O, Comm(O, E))), budget83)
    high = expand(Comm(Comm(O2, E), E), budget83).shift_m(-2)
    assert min_hbar_order(low, basis83) == 1
    assert min_hbar_order(high, basis83) == 2
    mixed = {
        r"\[\(0, -2\), \(0, 0\)\]": (low.add(high), 1),
        r"\[\(0, -3\), \(0, -2\)\]": (high.add(high.shift_m(-1)), 2),
    }
    for strata, (piece, lowest) in mixed.items():
        parts = _strata(piece).values()
        assert len(parts) == 2
        assert min(min_hbar_order(part, basis83) for part in parts) == lowest
        for query in (lambda: min_hbar_order(piece, basis83), lambda: project(piece, basis83, 0)):
            with pytest.raises(ValueError, match=r"one \(beta, m\) stratum, got " + strata):
                query()
    two_classes = low.add(expand(Comm(O, E), budget83))
    for query in (min_hbar_order, lambda piece, basis: project(piece, basis, 0)):
        with pytest.raises(ValueError, match=r"one class, got \[\(1, 1\), \(2, 2\)\]"):
            query(two_classes, basis83)


def test_residual_captures_out_of_span_content(basis42):
    # A single bare word with two potential letters is not a bracket
    # combination: it certifies at no order, everything lands in the
    # residual, reconstruct holds.
    piece = AbstractExpr.from_terms([((0, "EE", 0), Fraction(1))])
    assert min_hbar_order(piece, basis42) is None
    result = project(piece, basis42, 0)
    assert result.entries == ()
    assert not result.residual.is_zero()
    assert reconstruct(result).sub(piece).is_zero()


@st.composite
def basis_combinations(draw):
    # indices into classes the small basis actually populates
    klass = draw(st.sampled_from([(1, 2), (1, 3), (2, 1), (2, 2)]))
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=-8, max_value=8).filter(lambda n: n != 0),
                st.integers(min_value=-3, max_value=0),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return klass, picks


@given(combo=basis_combinations())
@settings(max_examples=40, deadline=None)
def test_projection_reconstructs_arbitrary_span_members(basis42, combo):
    klass, picks = combo
    elements = basis42.class_elements(*klass)
    piece = AbstractExpr.zero()
    chosen_orders = []
    for index, weight, m_shift in picks:
        element = elements[index % len(elements)]
        chosen_orders.append(element.order)
        piece = piece.add(expansion(element).scale(Fraction(weight)).shift_m(m_shift))
    if piece.is_zero():
        return
    rebuilt, certified = AbstractExpr.zero(), []
    for part in _strata(piece).values():
        result = project(part, basis42, min_order=0)
        assert result.residual.is_zero()
        assert reconstruct(result).sub(part).is_zero()
        rebuilt = rebuilt.add(reconstruct(result))
        order = min_hbar_order(part, basis42)
        assert order is not None
        certified.append(order)
    assert rebuilt.sub(piece).is_zero()
    assert min(certified) >= min(chosen_orders)


# -- elimination kernel against the dict echelon and a rational oracle ------------


def _primitive(vector, combo):
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
    """Fraction-free sparse row echelon over integer word vectors, one
    (vector, row) pair at a time in dicts: the comparator's elimination
    before its numpy kernel, kept as the kernel's oracle.

    Rows are kept in insertion order as (pivot word, vector, label, combo),
    where the pivot is the least word left after reduction and the vector
    is primitive.  Reducing by a row is v <- p*v - a*row, with p the row's
    pivot entry and a the vector's, both divided by their gcd; the result
    is then divided by its content.  A tracked echelon also keeps each
    row's combo, its integer combination of the inserted labels, and its
    gcd is taken with the vector's.
    """

    def __init__(self, tracked=False):
        self._tracked = tracked
        self._rows = []

    def _eliminate(self, vector, combo):
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

    def insert(self, label, vector):
        """None when the vector is independent of the rows so far (it adds a
        row), else its weights over the earlier labels ({} untracked)."""
        combo = {label: 1} if self._tracked else None
        remainder, combo, _ = self._eliminate(vector, combo)
        if remainder:
            self._rows.append((min(remainder), remainder, label, combo))
            return None
        if combo is None:
            return {}
        own = combo.pop(label)
        return {name: Fraction(-value, own) for name, value in combo.items()}

    def reduce(self, vector):
        """(remainder, weights) with vector == remainder + sum(weights[l] *
        vector of l); tracked echelons only."""
        scaled, denominator = _integral(vector)
        remainder, combo, _ = self._eliminate(scaled, {_TARGET: denominator})
        scale = combo.pop(_TARGET)
        return (
            {word: Fraction(value, scale) for word, value in remainder.items()},
            {name: Fraction(-value, scale) for name, value in combo.items()},
        )

    def last_used(self, vector):
        """The label of the last row reducing the vector uses, or None when
        a remainder is left."""
        remainder, _, last = self._eliminate(vector, None)
        return None if remainder else last


class _GaussJordan:
    """Plain Fraction Gauss-Jordan with the kernel's pivot rule (least word).

    Rows are fully reduced and scaled to 1 at their pivots, and each row
    carries its combination over the inserted labels.
    """

    def __init__(self):
        self.rows = []  # [pivot, vector, combo]
        self.pivots = []  # in insertion order

    def _reduce(self, vector, combo):
        vector, combo = dict(vector), dict(combo)
        for pivot, row, row_combo in self.rows:
            factor = vector.get(pivot, 0)
            if factor:
                for target, source in ((vector, row), (combo, row_combo)):
                    for key, value in source.items():
                        target[key] = target.get(key, 0) - factor * value
        return (
            {k: v for k, v in vector.items() if v},
            {k: v for k, v in combo.items() if v},
        )

    def insert(self, label, vector):
        vector = {k: Fraction(v) for k, v in vector.items()}
        rest, combo = self._reduce(vector, {label: Fraction(1)})
        if not rest:
            own = combo.pop(label)
            return {k: -v / own for k, v in combo.items()}
        pivot = min(rest)
        lead = rest[pivot]
        rest = {k: v / lead for k, v in rest.items()}
        combo = {k: v / lead for k, v in combo.items()}
        for row in self.rows:
            factor = row[1].get(pivot, 0)
            if factor:
                for index, source in ((1, rest), (2, combo)):
                    updated = dict(row[index])
                    for key, value in source.items():
                        updated[key] = updated.get(key, 0) - factor * value
                    row[index] = {k: v for k, v in updated.items() if v}
        self.rows.append([pivot, rest, combo])
        self.pivots.append(pivot)
        return None

    def reduce(self, vector):
        remainder, combo = self._reduce(vector, {None: Fraction(1)})
        own = combo.pop(None)
        return (
            {k: v / own for k, v in remainder.items()},
            {k: -v / own for k, v in combo.items()},
        )


_WORDS = ["EO", "OE", "OO", "EEO", "EOE", "OEE"]

_int_vectors = st.dictionaries(
    st.sampled_from(_WORDS), st.integers(-4, 4).filter(bool), min_size=1, max_size=4
)
_rational_vectors = st.dictionaries(
    st.sampled_from(_WORDS),
    st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool),
    min_size=1,
    max_size=6,
)


@given(
    vectors=st.lists(_int_vectors, min_size=1, max_size=8),
    picks=st.lists(st.tuples(st.integers(0, 7), st.fractions(-2, 2, max_denominator=6))),
    extra=_rational_vectors,
    spanned=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_echelon_matches_rational_gauss_jordan(vectors, picks, extra, spanned):
    tracked, untracked, oracle = _Echelon(tracked=True), _Echelon(), _GaussJordan()
    for label, vector in enumerate(vectors):
        expected = oracle.insert(label, vector)
        assert tracked.insert(label, vector) == expected
        assert (untracked.insert(label, vector) is None) == (expected is None)
    assert [row[0] for row in tracked._rows] == oracle.pivots
    assert [row[0] for row in untracked._rows] == oracle.pivots

    # A target in the span (a rational combination of the inputs) or,
    # with `spanned` false, one with an arbitrary rational part added.
    target = {} if spanned else dict(extra)
    for index, weight in picks:
        for word, value in vectors[index % len(vectors)].items():
            target[word] = target.get(word, 0) + weight * value
    target = {word: Fraction(value) for word, value in target.items() if value}
    if not target:
        return
    remainder, weights = oracle.reduce(target)
    assert tracked.reduce(target) == (remainder, weights)
    if spanned:
        assert not remainder
    scale = 2 * lcm(*(value.denominator for value in target.values()))
    scaled = {word: int(value * scale) for word, value in target.items()}
    last = None if remainder else max(weights)
    assert tracked.last_used(scaled) == last
    assert untracked.last_used(scaled) == last

    # The numpy kernel takes the same steps as the dict echelon.
    index = {word: col for col, word in enumerate(sorted(_WORDS))}
    matrix = _word_matrix(vectors, index)
    reduced, pivots = _eliminate(matrix)
    kept = np.flatnonzero(pivots >= 0)
    assert _kernel_rows(index, reduced, pivots, range(len(vectors))) == _dict_rows(untracked)
    integral, denominator = _integral(target)
    ((kernel_remainder, kernel_weights),) = _solve(
        matrix[kept], _word_matrix([integral], index), [denominator]
    )
    words = list(index)
    assert {words[col]: value for col, value in kernel_remainder.items()} == remainder
    assert {int(label): w for label, w in zip(kept, kernel_weights) if w} == weights


def _kernel_rows(index, reduced, pivots, labels):
    """(pivot word, row, label) of each echelon row of a kernel elimination."""
    words = list(index)
    return [
        (words[pivot], {words[col]: int(row[col]) for col in np.flatnonzero(row != 0)}, label)
        for row, pivot, label in zip(reduced, pivots, labels)
        if pivot >= 0
    ]


def _class_echelon(basis, klass):
    """The kernel's elimination of the class rows in `insertion_order`: the
    reduced matrix and the (pivot word, row, text) of each echelon row."""
    order = insertion_order(basis, klass)
    reduced, pivots = _eliminate(class_rows(basis, klass, order))
    index = comparator._class_index(klass)
    return reduced, _kernel_rows(index, reduced, pivots, [element.text for element in order])


def _dict_rows(echelon):
    return [(pivot, row, label) for pivot, row, label, _ in echelon._rows]


def _oracle_echelon(basis, klass):
    oracle = _Echelon()
    for element in insertion_order(basis, klass):
        oracle.insert(element.text, word_vector(element))
    return oracle


def test_dependencies_match_the_tracked_dict_echelon():
    basis = build_basis(Budget(6, 2))
    expected = {}
    for klass in basis.classes():
        oracle = _Echelon(tracked=True)
        for element in insertion_order(basis, klass):
            members = oracle.insert(element.text, word_vector(element))
            if members is not None:
                expected[element.text] = tuple(sorted(members.items()))
    assert expected
    assert {dep.text: dep.members for dep in dependencies(basis)} == expected


def test_class_echelons_match_the_dict_echelon_at_8_3(basis83):
    for klass in DIFFERING_83:
        _, rows = _class_echelon(basis83, klass)
        assert rows == _dict_rows(_oracle_echelon(basis83, klass)), klass


DIFFERING_93 = [(1, 4), (1, 6), (1, 8), (2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 6)]


def test_class_echelons_match_the_dict_echelon_at_9_3():
    basis = build_basis(Budget(9, 3), classes=DIFFERING_93)
    for klass in DIFFERING_93:
        _, rows = _class_echelon(basis, klass)
        assert rows == _dict_rows(_oracle_echelon(basis, klass)), klass


def _differing_83(report83, eriksen83, static13_83):
    """(class, certified order, difference) of each differing class at (8,3)."""
    for row in report83.classes:
        if row.status == "differs":
            klass = (row.e_count, row.o_count)
            delta = restrict_class(eriksen83, *klass).sub(restrict_class(static13_83, *klass))
            yield klass, row, delta


def test_object_path_keeps_the_echelon_and_the_projection(
    monkeypatch, report83, eriksen83, static13_83, budget83
):
    """With the switch to Python ints forced low, the steps past it run on
    dtype=object; the class echelon's rows, pivots and labels, the
    certificate and the projection (greedy fallback included) stay the
    same."""
    monkeypatch.setattr(comparator, "_INT64_BOUND", 1 << 7)
    differing = {klass: (row, delta) for klass, row, delta in _differing_83(report83, eriksen83, static13_83)}
    for klass in [(2, 4), (3, 4)]:
        basis = build_basis(budget83, classes=[klass])
        reduced, rows = _class_echelon(basis, klass)
        assert reduced.dtype == object
        assert rows == _dict_rows(_oracle_echelon(basis, klass)), klass
        row, delta = differing[klass]
        assert min_hbar_order(delta, basis) == row.hbar_order_min, klass
        projection = project(delta, basis, min_order=row.hbar_order_min)
        assert [(e.element.text, e.weight, e.beta_exp, e.m_exp) for e in projection.entries] == [
            (e.element.text, e.weight, e.beta_exp, e.m_exp) for e in row.projection.entries
        ], klass
        assert projection.residual.is_zero()


def _subset_scan(vector, col_vectors):
    """The subset search before the numpy kernel, one subset at a time with
    dict echelons: (weights by column, or None; subsets visited)."""
    target, _ = _integral(vector)
    bits = {word: 1 << index for index, word in enumerate(target)}
    full = (1 << len(target)) - 1
    col_masks = [sum(bits.get(word, 0) for word in vec) for vec in col_vectors]
    visited = 0
    for size in range(1, _SPARSE_LIMIT + 1):
        if size > len(col_vectors):
            break
        for subset in combinations(range(len(col_vectors)), size):
            if visited == _SUBSET_BUDGET:
                return None, visited
            visited += 1
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
            solver = _Echelon(tracked=True)
            for position, index in enumerate(subset):
                solver.insert(position, col_vectors[index])
            _, weights = solver.reduce(vector)
            return {subset[position]: weight for position, weight in weights.items()}, visited
    return None, visited


def _projection_columns(basis, klass, min_order):
    """The class elements of order >= min_order, the class words as column
    indices, and those elements' rows: what `project` solves over."""
    elements = basis.class_elements(*klass)
    kept = [at for at, element in enumerate(elements) if element.order >= min_order]
    columns = [elements[at] for at in kept]
    return columns, comparator._class_index(klass), basis.class_rows(klass)[kept]


def _kernel_solve(vector, index, matrix):
    """_sparse_solve's subset with its weights, or None."""
    integral, scale = _integral(vector)
    target = _word_matrix([integral], index)
    subset = _sparse_solve(target[0], matrix)
    if subset is None:
        return None
    ((remainder, weights),) = _solve(matrix[list(subset)], target, [scale])
    assert not remainder
    return dict(zip(subset, weights))


def test_sparse_solve_matches_the_subset_scan_on_every_stratum_at_8_3(
    report83, eriksen83, static13_83, basis83
):
    exhausted = []
    for klass, row, delta in _differing_83(report83, eriksen83, static13_83):
        columns, index, matrix = _projection_columns(basis83, klass, row.hbar_order_min)
        _, beta_exp, m_exp, vector = comparator._stratum(delta)
        expected, visited = _subset_scan(vector, [word_vector(el) for el in columns])
        assert _kernel_solve(vector, index, matrix) == expected, (klass, beta_exp, m_exp)
        if expected is None:
            exhausted.append((klass, visited))
    # (2, 6) runs out of its budget; (3, 4) tries every subset of its 76
    # columns, 76 + 2850 + 70300 of them.
    assert exhausted == [((2, 6), _SUBSET_BUDGET), ((3, 4), 73226)]


def test_sparse_solve_gives_up_after_exactly_the_budget(
    monkeypatch, report83, eriksen83, static13_83, basis83
):
    """A subset found at visit k is found with a budget of k subsets, in
    blocks of any size, and not with k - 1."""
    klass, row, delta = next(
        entry for entry in _differing_83(report83, eriksen83, static13_83) if entry[0] == (2, 4)
    )
    columns, index, matrix = _projection_columns(basis83, klass, row.hbar_order_min)
    *_, vector = comparator._stratum(delta)
    expected, visited = _subset_scan(vector, [word_vector(el) for el in columns])
    assert expected is not None and visited > 1000
    for budget, block in [(visited, 1 << 13), (visited, 100), (visited - 1, 1 << 13), (visited - 1, 100)]:
        monkeypatch.setattr(comparator, "_SUBSET_BUDGET", budget)
        monkeypatch.setattr(comparator, "_SUBSET_BLOCK", block)
        found = _kernel_solve(vector, index, matrix)
        assert found == (expected if budget == visited else None), (budget, block)


def test_span_candidates_follow_combinations_order(monkeypatch):
    """With P zero every determinant vanishes, so every subset is kept: the
    blocks hold exactly the first `total` subsets in `combinations` order,
    across block boundaries."""
    for block in (1, 5, 1 << 13):
        monkeypatch.setattr(comparator, "_SUBSET_BLOCK", block)
        for n in range(1, 9):
            for size in range(1, min(3, n) + 1):
                expected = list(combinations(range(n), size))
                for total in {1, len(expected) // 2 or 1, len(expected)}:
                    images = np.zeros((n, size + 1), dtype=np.int64)
                    image = np.zeros(size + 1, dtype=np.int64)
                    blocks = comparator._span_candidates(images, image, size, total)
                    got = [tuple(row) for part in blocks for row in part.tolist()]
                    assert got == expected[:total], (block, n, size, total)


def test_sparse_solve_covers_targets_of_more_than_64_words():
    """Coverage masks span several 64-bit words."""
    words = [f"w{i:03d}" for i in range(150)]
    index = {word: col for col, word in enumerate(words)}
    ones = lambda cols: {words[col]: 1 for col in cols}
    col_vectors = [
        ones(range(0, 100)),
        ones(range(0, 149)),
        ones(range(70, 150)),
        ones(range(0, 70)),
        {**ones(range(70, 150)), words[3]: 2},
    ]
    vector = {word: Fraction(value) for word, value in ones(range(150)).items()}
    vector[words[149]] = Fraction(3, 2)
    matrix = _word_matrix(col_vectors, index)
    expected, _ = _subset_scan(vector, col_vectors)
    # No pair spans it; (1, 2, 3) is the first triple that does.
    assert expected == {1: Fraction(-1, 2), 2: Fraction(3, 2), 3: Fraction(3, 2)}
    assert _kernel_solve(vector, index, matrix) == expected


@pytest.fixture(scope="module")
def subset_scans_83(report83, eriksen83, static13_83, basis83):
    """(class, stratum, vector, column index, column matrix, the subset
    scan's answer) of every stratum at (8,3)."""
    scans = []
    for klass, row, delta in _differing_83(report83, eriksen83, static13_83):
        columns, index, matrix = _projection_columns(basis83, klass, row.hbar_order_min)
        _, beta_exp, m_exp, vector = comparator._stratum(delta)
        expected, _ = _subset_scan(vector, [word_vector(el) for el in columns])
        scans.append((klass, (beta_exp, m_exp), vector, index, matrix, expected))
    return scans


@pytest.mark.parametrize("projection", ["zeros", "two words merged"])
def test_determinant_screen_drops_no_answer(monkeypatch, projection, subset_scans_83):
    """The screen only drops subsets: with a P that tells nothing apart
    (zeros) or one under which the first two words look the same, every
    stratum still gets the subset scan's answer."""
    fixed = comparator._screen_projection

    def patched(width):
        matrix = fixed(width)
        if projection == "zeros":
            return np.zeros_like(matrix)
        matrix[1] = matrix[0]
        return matrix

    monkeypatch.setattr(comparator, "_screen_projection", patched)
    for klass, stratum, vector, index, matrix, expected in subset_scans_83:
        assert _kernel_solve(vector, index, matrix) == expected, (klass, stratum)


def test_determinant_screen_keeps_few_subsets_at_8_3(monkeypatch, subset_scans_83):
    """Class (2,6) spans its stratum with no subset of at most three of its
    661 columns.  Of the 661 singles, 218 130 pairs and the first 81 209
    triples the search may visit, the screen passes 0, 2 and 5 on."""
    screened = {1: 0, 2: 0, 3: 0}
    screen = comparator._screen

    def counting(subsets, columns, target):
        screened[subsets.shape[1]] += len(subsets)
        return screen(subsets, columns, target)

    monkeypatch.setattr(comparator, "_screen", counting)
    ((_, _, vector, index, matrix, expected),) = [
        scan for scan in subset_scans_83 if scan[0] == (2, 6)
    ]
    assert len(matrix) == 661 and expected is None
    assert _kernel_solve(vector, index, matrix) is None
    assert screened == {1: 0, 2: 2, 3: 5}


def test_determinants_match_fraction_elimination():
    rng = np.random.default_rng(7)
    for size in (1, 2, 3):
        blocks = rng.integers(-4, 5, size=(50, size, size))
        for block, value in zip(blocks, comparator._determinants(blocks)):
            rows = [[Fraction(int(x)) for x in row] for row in block]
            det = Fraction(1)
            for col in range(size):
                pivot = next((r for r in range(col, size) if rows[r][col]), None)
                if pivot is None:
                    det = Fraction(0)
                    break
                if pivot != col:
                    rows[col], rows[pivot] = rows[pivot], rows[col]
                    det = -det
                det *= rows[col][col]
                for r in range(col + 1, size):
                    factor = rows[r][col] / rows[col][col]
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
            assert int(value) == det


def test_certificates_match_the_oracle_on_every_differing_class(
    report83, eriksen83, static13_83, basis83
):
    """min_hbar_order equals the lowest order over the oracle's weights,
    with the class inserted from high order to low."""
    differing = [row for row in report83.classes if row.status == "differs"]
    assert len(differing) == 7
    for row in differing:
        klass = (row.e_count, row.o_count)
        delta = restrict_class(eriksen83, *klass).sub(restrict_class(static13_83, *klass))
        oracle = _GaussJordan()
        for el in sorted(basis83.class_elements(*klass), key=lambda el: -el.order):
            oracle.insert(el.text, word_vector(el))
        strata = {}
        for (beta_exp, word, m_exp), coeff in delta.terms():
            strata.setdefault((beta_exp, m_exp), {})[word] = coeff
        orders = []
        for vector in strata.values():
            remainder, weights = oracle.reduce(vector)
            assert not remainder, klass
            orders.extend(element(basis83, text).order for text in weights)
        assert min_hbar_order(delta, basis83) == min(orders) == row.hbar_order_min, klass


# -- comparison report ------------------------------------------------------------


def test_report_identical_classes(report83):
    rows = {(r.e_count, r.o_count): r for r in report83.classes}
    for klass in [(0, 0), (0, 2), (0, 4), (0, 6), (0, 8), (1, 0), (1, 2)]:
        assert rows[klass].status == "identical", klass
        assert rows[klass].projection is None


def test_report_differing_classes_and_presentations(report83):
    rows = {(r.e_count, r.o_count): r for r in report83.classes}
    differing = {k for k, r in rows.items() if r.status == "differs"}
    assert differing == {(1, 4), (1, 6), (2, 2), (2, 4), (2, 6), (3, 2), (3, 4)}

    def entries(klass):
        return [
            (str(e.weight), e.beta_exp, e.m_exp, e.element.text)
            for e in rows[klass].projection.entries
        ]

    assert rows[(1, 4)].hbar_order_min == 2
    assert entries((1, 4)) == [
        ("-1/32", 0, -4, "comm(pow(O, 2), comm(pow(O, 2), E))")
    ]
    assert rows[(1, 6)].hbar_order_min == 2
    assert entries((1, 6)) == [
        ("29/512", 0, -6, "acomm(pow(O, 2), comm(pow(O, 2), comm(pow(O, 2), E)))"),
        ("-11/1024", 0, -6, "acomm(O, acomm(O, comm(pow(O, 2), comm(pow(O, 2), E))))"),
    ]
    assert rows[(2, 2)].hbar_order_min == 2
    assert entries((2, 2)) == [
        ("1/16", 1, -3, "comm(comm(pow(O, 2), E), E)")
    ]
    assert rows[(2, 4)].hbar_order_min == 2
    assert len(entries((2, 4))) == 3
    assert rows[(2, 6)].hbar_order_min == 2
    assert rows[(3, 2)].hbar_order_min == 3
    assert entries((3, 2)) == [
        ("-1/32", 0, -4, "comm(O, comm(comm(comm(O, E), E), E))")
    ]
    assert rows[(3, 4)].hbar_order_min == 4
    assert len(entries((3, 4))) == 12


def test_report_reconstruction_and_residuals(report83, eriksen83, static13_83):
    for row in report83.classes:
        if row.projection is None:
            continue
        delta = restrict_class(eriksen83, row.e_count, row.o_count).sub(
            restrict_class(static13_83, row.e_count, row.o_count)
        )
        assert row.projection.residual.is_zero()
        assert reconstruct(row.projection).sub(delta).is_zero()


def test_report_projection_idempotent(report83, eriksen83, static13_83, basis83):
    for row in report83.classes:
        if row.projection is None:
            continue
        again = project(
            reconstruct(row.projection), basis83, min_order=row.hbar_order_min
        )
        assert [
            (e.element.text, e.weight, e.beta_exp, e.m_exp) for e in again.entries
        ] == [
            (e.element.text, e.weight, e.beta_exp, e.m_exp)
            for e in row.projection.entries
        ]


def test_every_difference_certifies_at_order_two_or_deeper(report83):
    assert report83.clean
    for row in report83.classes:
        if row.status == "differs":
            assert row.hbar_order_min is not None and row.hbar_order_min >= 2


def test_report_json_schema(report83):
    data = report83.to_json_dict()
    assert set(data) == {"budget", "classes"}
    assert data["budget"] == {"max_word_len": 8, "max_e_count": 3}
    for row in data["classes"]:
        assert set(row) == {"e", "o", "status", "hbar_order_min", "basis_terms", "residual"}
        for term in row["basis_terms"]:
            assert set(term) == {"bracket_text", "coeff", "m_exp"}
            assert isinstance(term["coeff"], str)
        assert row["residual"] == []
    by_class = {(row["e"], row["o"]): row for row in data["classes"]}
    assert by_class[(2, 2)]["basis_terms"] == [
        {
            "bracket_text": "beta * comm(comm(pow(O, 2), E), E)",
            "coeff": "1/16",
            "m_exp": -3,
        }
    ]
    assert by_class[(0, 2)] == {
        "e": 0,
        "o": 2,
        "status": "identical",
        "hbar_order_min": None,
        "basis_terms": [],
        "residual": [],
    }


def test_report_text_rendering(report83):
    text = report83.to_text()
    assert "class comparison at word length <= 8, E count <= 3" in text
    assert "(1,4)" in text and "(2,2)" in text
    assert "identical" in text and "differs" in text
    assert "comm(comm(pow(O, 2), E), E)" in text


def test_report_on_equal_inputs():
    budget = Budget(4, 2)
    same = expand(Sum((sc(Fraction(1, 2), Comm(O, Comm(O, E))), E)), budget)
    report = diff_report(same, same, budget)
    assert all(row.status == "identical" for row in report.classes)
    assert report.clean
