"""Backend-differential conformance suite for the kernel backends.

Every kernel operation — the sorted-sequence set algebra, the ids↔bits
conversions and the axis kernels — is run under every resolvable backend
over adversarial id patterns (empty, singleton, all-ids, dense vs sparse
around the density threshold, bitmask byte boundaries, the max-id edge)
and must produce *identical memberships*: the same sorted ids and the
same bitmask.  The axis kernels are additionally checked against the
per-node object walk (:func:`repro.xmlmodel.axes.apply_axis_to_set`),
which shares no code with the index and serves as the independent oracle.
"""

import pytest

from repro.xmlmodel import (
    chain_document,
    complete_tree_document,
    parse_xml,
    wide_document,
)
from repro.xmlmodel.axes import apply_axis_to_set
from repro.xmlmodel.idset import DENSITY_FACTOR, IdSet
from repro.xmlmodel.kernels import (
    available_backends,
    backend_by_name,
    use_backend,
)

BACKENDS = available_backends()

#: Universes chosen to straddle the bitmask byte boundaries (1, 7..9,
#: 63..65) plus a round non-boundary size.
UNIVERSES = (1, 7, 8, 9, 63, 64, 65, 100)


def _patterns(universe):
    """Adversarial id patterns over ``[0, universe)``, deduplicated."""
    dense_count = max(1, -(-universe // DENSITY_FACTOR))  # ceil: just dense
    sparse_count = max(1, universe // DENSITY_FACTOR - 1)  # just sparse
    candidates = {
        "empty": [],
        "first": [0],
        "last": [universe - 1],
        "all": list(range(universe)),
        "evens": list(range(0, universe, 2)),
        "ends": sorted({0, universe - 1}),
        "just-dense": list(range(dense_count)),
        "just-sparse": list(range(0, universe, max(1, universe // sparse_count)))[
            :sparse_count
        ],
        "high-block": list(range(universe - max(1, universe // 4), universe)),
    }
    seen = set()
    for label, ids in sorted(candidates.items()):
        key = tuple(ids)
        if key in seen:
            continue
        seen.add(key)
        yield label, ids


def _pairs(universe):
    named = list(_patterns(universe))
    for label_a, a in named:
        for label_b, b in named:
            yield f"{label_a}&{label_b}", a, b


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("universe", UNIVERSES)
def test_algebra_matches_pure(backend_name, universe):
    """intersect/union/difference agree with pure on every operand pair."""
    pure = backend_by_name("pure")
    backend = backend_by_name(backend_name)
    for label, a, b in _pairs(universe):
        for op in ("intersect_sorted", "union_sorted", "difference_sorted"):
            expected = list(getattr(pure, op)(list(a), list(b)))
            got = getattr(backend, op)(
                backend.prepare_sorted(list(a)), backend.prepare_sorted(list(b))
            )
            assert list(got) == expected, (backend_name, op, universe, label)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("universe", UNIVERSES)
def test_conversions_match_pure(backend_name, universe):
    """bits_from_ids / ids_from_bits agree with pure and roundtrip."""
    pure = backend_by_name("pure")
    backend = backend_by_name(backend_name)
    for label, ids in _patterns(universe):
        expected_bits = pure.bits_from_ids(list(ids), universe)
        got_bits = backend.bits_from_ids(backend.prepare_sorted(list(ids)), universe)
        assert got_bits == expected_bits, (backend_name, universe, label)
        # Range-shaped inputs take a dedicated shift path in both backends.
        if ids and ids == list(range(ids[0], ids[-1] + 1)):
            as_range = range(ids[0], ids[-1] + 1)
            assert backend.bits_from_ids(as_range, universe) == expected_bits
        back = backend.ids_from_bits(got_bits, universe)
        assert list(back) == list(ids), (backend_name, universe, label)


def _documents():
    return {
        "mixed": parse_xml(
            "<a><b x='1'><c/><d/><c/></b><b><c><e/><e/></c></b>"
            "text<c/><f><b><c/></b><!--note--><?pi data?></f></a>"
        ),
        "chain-31": chain_document(31),
        "wide-30": wide_document(30),
        "complete-2x5": complete_tree_document(2, 5),
    }


AXES = (
    "self",
    "child",
    "parent",
    "descendant",
    "descendant-or-self",
    "ancestor",
    "ancestor-or-self",
    "following",
    "following-sibling",
    "preceding",
    "preceding-sibling",
)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("doc_label", sorted(_documents()))
def test_axis_kernels_match_per_node_walk_oracle(backend_name, doc_label):
    """Every axis kernel equals the union of per-node walks on every pattern."""
    index = _documents()[doc_label].index
    size = index.size
    with use_backend(backend_name):
        for pattern_label, ids in _patterns(size):
            frontier = IdSet.from_sorted(list(ids), size)
            members = index.ids_to_node_list(ids)
            for axis in AXES:
                result = index.axis_idset(axis, frontier)
                oracle = apply_axis_to_set(members, axis)
                assert index.idset_to_node_list(result) == oracle, (
                    backend_name,
                    doc_label,
                    pattern_label,
                    axis,
                )
                assert result.universe == size


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("doc_label", sorted(_documents()))
def test_node_test_partitions_agree(backend_name, doc_label):
    """test_idset / filter_idset memberships are backend-independent."""
    document = _documents()[doc_label]
    index = document.index
    size = index.size
    tags = sorted(index.ids_by_tag) + ["nosuchtag"]
    tests = tags + ["*", "node()", "text()", "comment()",
                    "processing-instruction()"]
    with use_backend("pure"):
        expected_partitions = {
            t: (p.tolist() if p is not None else None)
            for t, p in ((t, index.test_idset(t)) for t in tests)
        }
        expected_filtered = {
            t: index.filter_idset(IdSet.full(size), "child", t).tolist()
            for t in tests
        }
    with use_backend(backend_name):
        for node_test in tests:
            partition = index.test_idset(node_test)
            got = partition.tolist() if partition is not None else None
            assert got == expected_partitions[node_test], (
                backend_name, doc_label, node_test,
            )
            filtered = index.filter_idset(IdSet.full(size), "child", node_test)
            assert filtered.tolist() == expected_filtered[node_test]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_idset_algebra_end_to_end(backend_name):
    """IdSet operators produce identical memberships under every backend."""
    universe = 72  # straddles a byte boundary
    with use_backend(backend_name):
        sparse = IdSet.from_sorted([1, 9, 40, 71], universe)
        dense = IdSet.from_range(8, 66, universe)
        singleton = IdSet.from_sorted([71], universe)
        empty = IdSet.empty(universe)
        assert (sparse & dense).tolist() == [9, 40]
        assert (sparse | singleton).tolist() == [1, 9, 40, 71]
        assert (sparse - dense).tolist() == [1, 71]
        assert (dense - sparse).tolist() == [i for i in range(8, 66) if i not in (9, 40)]
        assert sparse.complement().tolist() == [
            i for i in range(universe) if i not in (1, 9, 40, 71)
        ]
        assert (empty | sparse).tolist() == [1, 9, 40, 71]
        assert (empty & dense).tolist() == []
        # ids↔bits roundtrips through the backend conversion kernels.
        assert IdSet.from_bits(sparse.bits, universe).tolist() == sparse.tolist()
        assert IdSet.from_bits(dense.bits, universe) == dense


#: Frontiers aimed at the edges of the prefix-count ``ancestor`` and the
#: scatter-based sibling kernels: the root as a member (its parent, -1,
#: wraps onto the sentinel slot), several members under one parent (the
#: scatter must keep the least for one kernel and the greatest for the
#: other), members whose parents differ, only children, and a chain as
#: deep as the document.
_EDGE_XML = (
    "<r><p><a/><b/><a/><b/><a/></p><q><only/></q><p><b/><a/></p>"
    "<deep><deep><deep><a/></deep></deep></deep>text</r>"
)


def _edge_frontiers(document):
    index = document.index
    size = index.size
    tagged = lambda tag: list(index.ids_by_tag.get(tag, ()))  # noqa: E731
    first_p_children = index.axis_ids(tagged("p")[0], "child")
    return {
        "root alone": [0],
        "root and document element": [0, 1],
        "root and leaves": sorted({0, *tagged("a")}),
        "one parent, first and last child": [first_p_children[0], first_p_children[-1]],
        "one parent, middle children": first_p_children[1:-1],
        "one parent, every child": first_p_children,
        "same tag under different parents": tagged("a"),
        "interleaved siblings": tagged("b"),
        "an only child": tagged("only"),
        "only children, nested": tagged("deep"),
        "last node": [size - 1],
        "parent and its child": [tagged("q")[0], tagged("only")[0]],
        "everything but the root": list(range(1, size)),
    }


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "doc_label", ["edges", "chain-200", "single-node", "wide-40"]
)
def test_rewritten_kernels_on_their_edges(backend_name, doc_label):
    """ancestor / sibling / union edges equal the per-node walk under every backend."""
    document = {
        "edges": lambda: parse_xml(_EDGE_XML),
        "chain-200": lambda: chain_document(200),  # depth == |D|
        "single-node": lambda: parse_xml("<a/>"),
        "wide-40": lambda: wide_document(40),
    }[doc_label]()
    index = document.index
    size = index.size
    if doc_label == "edges":
        frontiers = _edge_frontiers(document)
    else:
        frontiers = {
            "root alone": [0],
            "deepest": [size - 1],
            "ends": sorted({0, size - 1}),
            "every third": list(range(0, size, 3)),
            "all": list(range(size)),
        }
    with use_backend(backend_name) as backend:
        for label, ids in frontiers.items():
            frontier = IdSet.from_sorted(backend.prepare_sorted(list(ids)), size)
            members = index.ids_to_node_list(ids)
            for axis in (
                "ancestor", "ancestor-or-self", "following-sibling", "preceding-sibling",
            ):
                result = index.axis_idset(axis, frontier)
                got = result.tolist()
                assert got == sorted(set(got)), (backend_name, doc_label, label, axis)
                assert index.idset_to_node_list(result) == apply_axis_to_set(
                    members, axis
                ), (backend_name, doc_label, label, axis)
