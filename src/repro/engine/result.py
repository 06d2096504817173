"""The uniform result object returned by :class:`~repro.engine.XPathEngine`.

The legacy free functions return a bare ``XPathValue | list[XMLNode] |
bool`` union, which forces every caller to re-discover what kind of
answer it got and throws away everything the engine learned while
producing it (which evaluator ran, whether the plan was cached, how long
evaluation took).  :class:`QueryResult` keeps the payload *and* that
metadata together, carries the payload in whatever form produced it, and
converts at the property its caller touches: a Core XPath answer is
carried as the evaluator's :class:`~repro.xmlmodel.idset.IdSet`, a pool
reply as the packed int32 bytes of its wire frame, anything else as
nodes or a scalar — ``.ids`` builds the list of Python ints,
``.packed_ids`` the packed bytes (never via a list for the first two),
``.value``/``.nodes`` the node objects, each at most once.  The ``ids=``
flag of the entry points therefore selects no code path, only *when*
the conversion's typed error is raised.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.errors import XPathEvaluationError
from repro.telemetry.trace import maybe_span
from repro.xmlmodel.idset import IdSet, pack_ids, unpack_ids

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.fragments.classify import Classification
    from repro.planner.plan import QueryPlan
    from repro.telemetry.trace import Trace
    from repro.xmlmodel.document import Document
    from repro.xmlmodel.nodes import XMLNode


_UNSET = object()


class QueryResult:
    """One evaluated query: payload plus evaluation metadata.

    Attributes
    ----------
    query:
        The query text (the plan-cache key for ``engine="auto"`` runs).
    engine:
        The engine that answered: the planner's choice for auto-dispatch
        runs, the requested engine for explicit-engine runs.
    classification:
        The full Figure 1 :class:`~repro.fragments.classify.Classification`
        of the query: its plan's, computed on first read and kept with the
        plan (None for a pool reply, which carries no plan).
    cache_hit:
        True if the compiled plan (which doubles as the parse cache for
        explicit-engine runs) came from the engine's plan cache.
    wall_time:
        Evaluation wall time in seconds (parse/plan + run; excludes any
        time spent waiting for the document's lock).
    trace:
        The per-stage :class:`~repro.telemetry.Trace` span tree when the
        request asked for one (``trace=True``); None otherwise.  Lazy
        node materialisation appends a ``materialise`` span to it.

    The payload is reached through :attr:`value` (the legacy union),
    :attr:`nodes` (node-set results only), :attr:`ids` (document-order
    ids as a list of ints, built on first access and without
    materialising nodes when the answer was carried as ids) and
    :attr:`packed_ids` (the same ids as little-endian int32 bytes, the
    form the serving tier ships).
    :meth:`repro.planner.plan.QueryPlan.execute` builds the result; the
    engine stamps ``cache_hit``, ``wall_time`` and ``trace`` on it.

    >>> from array import array
    >>> from repro import XPathEngine, parse_xml
    >>> result = XPathEngine().evaluate("//b", parse_xml("<a><b/><c><b/></c></a>"))
    >>> result.ids
    [2, 4]
    >>> result.packed_ids == array("i", [2, 4]).tobytes()  # on a little-endian host
    True
    >>> result.ids is result.ids  # built once
    True
    """

    __slots__ = (
        "query",
        "engine",
        "cache_hit",
        "wall_time",
        "trace",
        "_document",
        "_plan",
        "_value",
        "_ids",
        "_id_list",
        "_packed",
    )

    def __init__(
        self,
        query: str,
        engine: str,
        document: "Document",
        value=_UNSET,
        ids: Union[list[int], IdSet, bytes, None] = None,
        plan: Optional["QueryPlan"] = None,
        cache_hit: bool = False,
        wall_time: float = 0.0,
        trace: Optional["Trace"] = None,
    ) -> None:
        if value is _UNSET and ids is None:
            raise ValueError("QueryResult needs a value or an id list")
        self.query = query
        self.engine = engine
        self.cache_hit = cache_hit
        self.wall_time = wall_time
        self.trace = trace
        self._document = document
        self._plan = plan
        self._value = value
        # The ids as they arrived (a list, an IdSet, or packed int32
        # bytes) and the two forms built from them on first access.
        self._ids = ids
        self._id_list = ids if isinstance(ids, list) else None
        self._packed = ids if isinstance(ids, bytes) else None

    @property
    def classification(self) -> Optional["Classification"]:
        """The query's Figure 1 classification, computed on first read."""
        return None if self._plan is None else self._plan.classification

    # -- payload ---------------------------------------------------------------

    @property
    def is_node_set(self) -> bool:
        """True if the query produced a node-set (rather than a scalar)."""
        return self._ids is not None or isinstance(self._value, list)

    @property
    def value(self):
        """The result in the legacy convention: node list or plain scalar.

        Id-native results materialise their node objects on first access
        (and cache them), so callers that only ever read :attr:`ids` never
        pay for node materialisation.
        """
        if self._value is _UNSET:
            with maybe_span(self.trace, "materialise"):
                index = self._document.index
                if isinstance(self._ids, IdSet):
                    self._value = index.idset_to_node_list(self._ids)
                else:
                    self._value = index.ids_to_node_list(self.ids)
        return self._value

    @property
    def nodes(self) -> "list[XMLNode]":
        """The node-set payload; raises if the query produced a scalar."""
        value = self.value
        if not isinstance(value, list):
            raise XPathEvaluationError(
                f"query produced a {type(value).__name__}, not a node-set"
            )
        return value

    @property
    def ids(self) -> list[int]:
        """The node-set payload as document-order ids.

        Built on first access, then the same list every time: an
        :class:`~repro.xmlmodel.idset.IdSet` or a packed pool reply
        converts in one C call, node results convert id by id.  The list
        is the caller's own — no cached partition or other answer
        aliases it.  A scalar answer, or attribute nodes (which have no
        id), raise :class:`~repro.errors.XPathEvaluationError`: this and
        :attr:`packed_ids` are where the ``ids=True`` contract is
        enforced, for every engine kind.
        """
        if self._id_list is None:
            carried = self._ids
            if isinstance(carried, IdSet):
                self._id_list = carried.tolist()
            elif carried is not None:
                self._id_list = unpack_ids(carried)
            else:
                index = self._document.index
                try:
                    self._id_list = [index.id_of(node) for node in self.nodes]
                except KeyError:
                    raise XPathEvaluationError(
                        "result contains nodes without a document-order id "
                        "(attribute nodes); use .value for this query"
                    ) from None
        return self._id_list

    @property
    def packed_ids(self) -> bytes:
        """The node-set payload as little-endian int32, four bytes per id.

        What a ``RESULT_IDS`` frame carries
        (:func:`repro.serving.wire.encode_result_ids` takes it as is).
        An :class:`~repro.xmlmodel.idset.IdSet` packs straight from the
        kernel backend's array and a pool reply *is* these bytes, so a
        served answer reaches its socket without ever becoming Python
        ints; a node or list answer packs its :attr:`ids`.  Raises like
        :attr:`ids` for a scalar or attribute answer.
        """
        if self._packed is None:
            if isinstance(self._ids, IdSet):
                self._packed = self._ids.tobytes()
            else:
                self._packed = pack_ids(self.ids)
        return self._packed

    @property
    def document(self) -> "Document":
        """The document the query was evaluated against."""
        return self._document

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_node_set:
            count = len(self._value) if self._ids is None else len(self.ids)
            payload = f"node-set of {count}"
        else:
            payload = repr(self._value)
        return (
            f"<QueryResult {self.query!r} engine={self.engine} "
            f"{payload} cache_hit={self.cache_hit}>"
        )
