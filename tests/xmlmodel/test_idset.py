"""Unit tests for the IdSet sorted-array / bitmask hybrid."""

import pytest

from repro.evaluation.core import CoreXPathEvaluator
from repro.xmlmodel import parse_xml
from repro.xmlmodel.idset import DENSITY_FACTOR, IdSet
from repro.xmlmodel.kernels import active_backend, available_backends, use_backend
from repro.xpath.parser import parse


class TestConstruction:
    def test_empty_and_full(self):
        empty = IdSet.empty(10)
        full = IdSet.full(10)
        assert len(empty) == 0 and not empty
        assert len(full) == 10 and list(full.ids) == list(range(10))
        assert full.bits == (1 << 10) - 1

    def test_from_range(self):
        s = IdSet.from_range(3, 7, universe=10)
        assert list(s.ids) == [3, 4, 5, 6]
        assert s.bits == 0b1111000

    def test_from_range_empty_interval(self):
        assert len(IdSet.from_range(5, 5, universe=10)) == 0
        assert len(IdSet.from_range(7, 3, universe=10)) == 0

    def test_from_iterable_normalises(self):
        s = IdSet.from_iterable([5, 1, 3, 1, 5], universe=8)
        assert list(s.ids) == [1, 3, 5]

    def test_zero_universe(self):
        assert len(IdSet.empty(0)) == 0
        assert len(IdSet.full(0)) == 0


class TestMaterialisations:
    def test_bits_roundtrip(self):
        members = [0, 7, 8, 63, 64, 99]
        s = IdSet.from_sorted(members, universe=100)
        assert IdSet.from_bits(s.bits, 100).tolist() == members

    def test_ids_from_bits_is_sorted(self):
        bits = (1 << 0) | (1 << 42) | (1 << 13)
        assert IdSet.from_bits(bits, 64).tolist() == [0, 13, 42]

    def test_density_threshold(self):
        universe = 8 * DENSITY_FACTOR
        sparse = IdSet.from_sorted(list(range(7)), universe)
        dense = IdSet.from_sorted(list(range(8)), universe)
        assert not sparse.is_dense
        assert dense.is_dense
        # A bitmask-backed set is dense regardless of cardinality.
        assert IdSet.from_bits(1, universe).is_dense


class TestAlgebra:
    @pytest.mark.parametrize("as_bits", [False, True])
    def test_and_or_sub(self, as_bits):
        universe = 200  # large enough that 4-member sets stay sparse
        def build(members):
            s = IdSet.from_iterable(members, universe)
            return IdSet.from_bits(s.bits, universe) if as_bits else s

        a, b = build([1, 2, 3, 50]), build([2, 50, 60])
        assert list((a & b).ids) == [2, 50]
        assert list((a | b).ids) == [1, 2, 3, 50, 60]
        assert list((a - b).ids) == [1, 3]

    def test_mixed_representations_agree(self):
        universe = 100
        sparse = IdSet.from_sorted([4, 9, 77], universe)
        dense = IdSet.from_range(0, 60, universe)
        assert list((sparse & dense).ids) == [4, 9]
        assert len(sparse | dense) == 61

    def test_complement(self):
        s = IdSet.from_iterable([0, 2], universe=4)
        assert list(s.complement().ids) == [1, 3]
        assert s.complement().complement() == s

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IdSet.full(3) & IdSet.full(4)


class TestProtocol:
    def test_contains_on_both_representations(self):
        members = [2, 5, 11]
        sparse = IdSet.from_sorted(members, universe=16)
        dense = IdSet.from_bits(sparse.bits, universe=16)
        for s in (sparse, dense):
            assert all(i in s for i in members)
            assert 3 not in s
            assert -1 not in s and 99 not in s

    def test_eq_and_hash_cross_representation(self):
        sparse = IdSet.from_sorted([1, 2], universe=8)
        dense = IdSet.from_bits(0b110, universe=8)
        assert sparse == dense
        assert hash(sparse) == hash(dense)
        assert sparse != IdSet.from_sorted([1, 2], universe=9)

    def test_iteration_is_sorted(self):
        s = IdSet.from_bits((1 << 30) | (1 << 2) | (1 << 17), universe=40)
        assert list(s) == [2, 17, 30]


# -- every pair of operand shapes, under every backend -----------------------------

BACKENDS = available_backends()

#: A document whose partitions cover every shape: `s` is a sparse tag
#: partition, `d` a dense one (so is `*`), `nosuch` an empty one.
SHAPES_XML = "<r>" + "<s/>" * 5 + "<d><t/></d>" * 40 + "<e/>" * 20 + "</r>"


def _shapes(index):
    """name -> IdSet, one per representation `&`, `|`, `-` can meet."""
    universe = index.size
    sparse = [3, 4, 50, 51, 100]
    dense = list(range(2, universe, 3))
    assert len(sparse) * DENSITY_FACTOR < universe <= len(dense) * DENSITY_FACTOR
    active = active_backend()

    def as_bits(ids):
        return IdSet.from_bits(IdSet.from_sorted(ids, universe).bits, universe)

    return {
        "empty": IdSet.empty(universe),
        "full": IdSet.full(universe),
        "range": IdSet.from_range(40, 90, universe),
        "sparse range": IdSet.from_range(48, 53, universe),
        "sparse ids": IdSet.from_sorted(active.prepare_sorted(sparse), universe),
        "dense ids": IdSet.from_sorted(active.prepare_sorted(dense), universe),
        "bits-only sparse": as_bits(sparse),
        "bits-only dense": as_bits(dense),
        "sparse partition": index.test_idset("s"),
        "dense partition": index.test_idset("d"),
        "empty partition": index.test_idset("nosuch"),
    }


def _is_sparse_ids(idset):
    return idset._ids is not None and len(idset._ids) * DENSITY_FACTOR < idset.universe


@pytest.mark.parametrize("backend", BACKENDS)
class TestEveryPairOfShapes:
    def test_algebra_equals_python_sets(self, backend):
        with use_backend(backend):
            index = parse_xml(SHAPES_XML).index
            shapes = _shapes(index)
            for left_name, left in shapes.items():
                for right_name, right in shapes.items():
                    a, b = set(left.tolist()), set(right.tolist())
                    label = (backend, left_name, right_name)
                    assert (left & right).tolist() == sorted(a & b), label
                    assert (left | right).tolist() == sorted(a | b), label
                    assert (left - right).tolist() == sorted(a - b), label
                    assert (left & right) == (right & left), label

    def test_a_sparse_ids_operand_never_yields_a_bitmask(self, backend):
        with use_backend(backend):
            shapes = _shapes(parse_xml(SHAPES_XML).index)
            for left_name, left in shapes.items():
                for right_name, right in shapes.items():
                    label = (backend, left_name, right_name)
                    if _is_sparse_ids(left) or _is_sparse_ids(right):
                        assert (left & right)._ids is not None, label
                    if _is_sparse_ids(left):
                        assert (left - right)._ids is not None, label

    def test_operands_are_left_as_they_were(self, backend):
        # A probe converts nothing; at most it caches the other operand's
        # bitmask (pure).  It never hangs a mask or an id list on a set.
        with use_backend(backend):
            shapes = _shapes(parse_xml(SHAPES_XML).index)
            sparse = shapes["sparse ids"]
            for name, other in shapes.items():
                had_ids, had_mask = other._ids is not None, other._probe_mask is not None
                sparse & other, other & sparse, sparse - other
                assert (other._ids is not None) == had_ids, (backend, name)
                assert (other._probe_mask is not None) == had_mask, (backend, name)
                assert sparse._bits is None and sparse._probe_mask is None

    def test_identities_return_the_operand_itself(self, backend):
        with use_backend(backend):
            shapes = _shapes(parse_xml(SHAPES_XML).index)
            full, empty = shapes["full"], shapes["empty"]
            for name, other in shapes.items():
                if len(other) not in (0, other.universe):
                    assert (full & other) is other and (other & full) is other, name
                    assert (other - empty) is other, name
                assert not (empty & other) and not (other & empty), name
                assert not (empty - other), name


@pytest.mark.parametrize("backend", BACKENDS)
class TestProbeMasks:
    def test_only_dense_partitions_carry_one(self, backend):
        with use_backend(backend):
            index = parse_xml(SHAPES_XML).index
            tests = sorted(index.ids_by_tag) + [
                "nosuch", "*", "node()", "text()", "comment()", "processing-instruction()",
            ]
            masked = []
            for node_test in tests:
                partition = index.test_idset(node_test)
                if partition._probe_mask is not None:
                    assert len(partition) * DENSITY_FACTOR >= index.size, node_test
                    assert len(partition._probe_mask) == index.size
                    assert [i for i in range(index.size) if partition._probe_mask[i]] == (
                        partition.tolist()
                    )
                    masked.append(node_test)
            # `node()` is an identity of `&` and is never probed; pure tests
            # the bytes of the cached bitmask instead and keeps no mask at all.
            assert masked == (["d", "e", "t", "*"] if backend == "vectorized" else [])
            assert index.test_idset("*") is index.test_idset("*")

    def test_no_set_a_query_computes_carries_one(self, backend):
        with use_backend(backend):
            document = parse_xml(SHAPES_XML)
            evaluator = CoreXPathEvaluator(document)
            queries = [
                "//d[child::t and not(child::s)]",
                "//*[self::d or self::e][not(following-sibling::s)]",
                "//t/parent::*[self::d]/following-sibling::e",
                "//node()[not(self::*)] | //s",
                "/descendant::d[child::*]/child::node()",
            ]
            held = [parse(query) for query in queries]  # alive: so are their sets
            answers = [evaluator.evaluate_idset(expr) for expr in held]
            partitions = {id(p) for p in document.index._test_idsets.values()}
            computed = answers + [entry[1] for entry in evaluator._condition_cache.values()]
            assert len(evaluator._condition_cache) >= 8
            for idset in computed:
                # `full & X` hands back the cached partition itself; nothing
                # else reachable from a query may own a mask.
                assert idset._probe_mask is None or id(idset) in partitions
