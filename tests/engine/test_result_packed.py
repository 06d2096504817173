"""`QueryResult` carries an answer as it was produced and converts on demand.

Whatever carried the ids — a numpy-, ``range``- or bitmask-backed
``IdSet``, a ``cvt`` node list, the packed bytes of a pool reply —
``.packed_ids`` must be exactly ``array("i", .ids)`` and ``.ids`` one
list built once, under both kernel backends.
"""

import os
import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings

from repro.engine import XPathEngine
from repro.errors import XPathEvaluationError
from repro.serving import ShardedPool
from repro.store import CorpusStore
from repro.xmlmodel import parse_xml
from repro.xmlmodel.idset import IdSet
from repro.xmlmodel.kernels import available_backends, use_backend

from tests.properties.strategies import core_xpath_queries, documents

XML = (
    "<a><m><s/><s/><s/><s/><s/></m>"
    + "".join(f"<b><c/>{'<d/>' if n % 3 else ''}</b>" for n in range(40))
    + "<e/></a>"
)

#: query → how the answer is expected to be carried (checked, so a change
#: of representation cannot quietly turn these into five copies of one case).
CASES = {
    "/a/m/s": "members",  # a sparse merge: list (pure) or numpy array (vectorized)
    "/descendant::node()": "range",  # a bare descendant step stays an interval
    "//*[not(child::d) and not(self::e)]": "bits",  # dense and/not: a bitmask
    "//b[position() = 2]": "members",  # not Core XPath: cvt's ids, from per-context lists
    "//b/@x": "nodes",  # attribute nodes have no id: a cvt node list
    "//nope": "members",  # the empty answer: the cached (empty) partition itself
}

BACKENDS = [name for name in ("pure", "vectorized") if name in available_backends()]


def _packed(ids):
    buffer = array("i", ids)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        buffer.byteswap()
    return buffer.tobytes()


def _carried_as(result):
    carried = result._ids
    if carried is None:
        return "nodes"
    if isinstance(carried, bytes):
        return "packed"
    assert isinstance(carried, IdSet)
    if carried._ids is None:
        return "bits"
    return "range" if isinstance(carried._ids, range) else "members"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("query", CASES)
class TestEveryCarriedForm:
    def test_packed_ids_are_the_packed_id_list(self, backend, query):
        with use_backend(backend):
            document = parse_xml(XML)
            engine = XPathEngine()
            packed_first = engine.evaluate(query, document)
            assert _carried_as(packed_first) == CASES[query]
            if CASES[query] == "members":
                is_numpy = hasattr(packed_first._ids.ids, "astype")
                assert is_numpy is (backend == "vectorized")
            packed = packed_first.packed_ids
            listed_first = engine.evaluate(query, document)
            ids = listed_first.ids
            assert bytes(packed) == _packed(ids)
            # either order of access gives the same two forms
            assert packed_first.ids == ids
            assert bytes(listed_first.packed_ids) == bytes(packed)
            assert all(type(i) is int for i in ids)
            assert ids == sorted(set(ids))
            assert ids == [document.index.id_of(n) for n in packed_first.nodes]

    def test_each_form_is_built_once(self, backend, query):
        with use_backend(backend):
            result = XPathEngine().evaluate(query, parse_xml(XML))
            assert result.ids is result.ids
            assert result.packed_ids is result.packed_ids
            assert result.value is result.value

    def test_a_mutated_id_list_cannot_change_a_later_answer(self, backend, query):
        with use_backend(backend):
            document = parse_xml(XML)
            engine = XPathEngine()
            first = engine.evaluate(query, document)
            expected = list(first.ids)
            packed = bytes(first.packed_ids)
            first.ids.append(10**6)
            first.ids[:1] = [-5, -4]
            again = engine.evaluate(query, document)  # warm plan, warm condition sets
            assert again.ids == expected
            assert bytes(again.packed_ids) == packed
            assert bytes(first.packed_ids) == packed  # its own bytes are immutable
            assert [document.index.id_of(n) for n in first.nodes] == expected


@pytest.mark.parametrize("backend", BACKENDS)
class TestIdsContract:
    def test_ids_true_builds_no_list_for_a_core_answer(self, backend):
        with use_backend(backend):
            result = XPathEngine().evaluate("//c", parse_xml(XML), ids=True)
            assert result._id_list is None  # the contract is checked without one
            assert len(result.ids) == 40 and result._id_list is result.ids

    def test_scalar_and_attribute_answers_have_no_packed_form(self, backend):
        with use_backend(backend):
            document = parse_xml('<a x="1"><b/></a>')
            with pytest.raises(XPathEvaluationError, match="not a node-set"):
                XPathEngine().evaluate("count(//b)", document).packed_ids
            with pytest.raises(XPathEvaluationError, match="attribute"):
                XPathEngine().evaluate("//@x", document).packed_ids


@pytest.mark.parametrize("backend", BACKENDS)
class TestRangeBackedAnswer:
    """An interval answer packs through the backend, not id by id."""

    @pytest.mark.parametrize("lo, hi", [(1, 8001), (0, 1), (5, 5), (7999, 8002)])
    def test_tobytes_of_a_range_is_the_packed_range(self, backend, lo, hi):
        with use_backend(backend):
            interval = IdSet.from_range(lo, hi, 8002)
            assert isinstance(interval.ids, range)
            assert interval.tobytes() == _packed(range(lo, hi))
            assert isinstance(interval.ids, range)  # still O(1) afterwards

    def test_a_descendant_answer_is_carried_and_packed_as_a_range(self, backend):
        with use_backend(backend):
            document = parse_xml(XML)
            result = XPathEngine().evaluate("/descendant::node()", document, ids=True)
            assert _carried_as(result) == "range"
            assert result.packed_ids == _packed(range(1, document.index.size))


def test_pure_packs_a_range_without_numpy():
    code = (
        "import sys\n"
        "from repro.xmlmodel.idset import IdSet, unpack_ids\n"
        "packed = IdSet.from_range(3, 9, 12).tobytes()\n"
        "assert unpack_ids(packed) == [3, 4, 5, 6, 7, 8]\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = dict(os.environ, REPRO_KERNEL_BACKEND="pure", PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestPoolReply:
    @pytest.fixture(scope="class")
    def pool(self, tmp_path_factory):
        store = CorpusStore(tmp_path_factory.mktemp("packed-store"))
        store.put(XML, key="doc")
        with ShardedPool(store, workers=1) as pool:
            yield pool

    @pytest.mark.parametrize("query", CASES)
    def test_pool_reply_is_carried_packed(self, pool, query):
        expected = XPathEngine().evaluate(query, parse_xml(XML)).ids
        result = pool.evaluate(query, "doc")
        assert _carried_as(result) == "packed"
        packed = result.packed_ids
        assert packed is result._ids  # the reply frame's bytes, handed on as is
        assert bytes(packed) == _packed(expected)
        assert result.ids == expected
        assert result.ids is result.ids
        assert [n.order for n in result.nodes] == expected


@pytest.mark.parametrize("backend", BACKENDS)
@given(documents(max_nodes=30), core_xpath_queries(allow_negation=True))
@settings(max_examples=50, deadline=None)
def test_packed_ids_equal_the_packed_id_list(backend, document, query):
    with use_backend(backend):
        engine = XPathEngine()
        packed = engine.evaluate(query, document).packed_ids
        result = engine.evaluate(query, document)
        assert bytes(packed) == _packed(result.ids)
        assert bytes(result.packed_ids) == bytes(packed)
        assert result.ids is result.ids
