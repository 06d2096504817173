"""Id sets: the native node-set representation of the indexed evaluators.

A :class:`DocumentIndex` names every tree node by its document-order id, a
small integer in ``[0, size)``.  The id-native Core XPath evaluator keeps
all of its frontiers and condition sets as :class:`IdSet` values over that
universe instead of Python sets of node objects, so set algebra never
hashes nodes and axis application never leaves flat integer land.

An :class:`IdSet` is immutable and keeps up to two interchangeable
materialisations of the same membership:

* ``ids`` — the members as a sorted sequence (a ``list`` or, for
  contiguous intervals such as a ``descendant`` result, a ``range``; the
  vectorized kernel backend stores numpy arrays here).  This is what the
  axis kernels iterate.
* ``bits`` — the members as a Python ``int`` bitmask (bit ``i`` set iff
  ``i`` is a member).  Boolean algebra on bitmasks runs at C speed
  regardless of cardinality, which is what makes ``and``/``or``/``not``
  conditions over whole documents cheap.

Either form is computed lazily from the other and cached, so repeated
algebra over the same set (the common case for cached condition sets)
pays the conversion at most once.

**Density threshold.**  A set is *sparse* while it holds fewer than
``1/DENSITY_FACTOR`` of the universe.  ``&`` and ``-`` never flip a
representation they do not have to:

1. identities first — ``full & X`` is ``X`` itself (sets are immutable,
   so no copy), anything with the empty set is that operand;
2. if an operand is sparse *and ids-backed*, it is **probed** into the
   other, whatever the other's form (sorted ids, a ``range``, a bitmask,
   a partition's probe mask): each member is tested, the survivors stay a
   sorted id sequence, ready for the next axis kernel, and nothing is
   converted;
3. only what is left — dense or bitmask-only operands on both sides —
   runs on bitmasks.

``|`` still runs on bitmasks as soon as either operand is dense or
bitmask-backed (a union with a dense set is dense), and complements
always do.  The rule is documented (and relied upon) in
``docs/architecture.md``.

**Probe masks.**  Beside its two materialisations a set may carry the
active backend's constant-time membership form, :attr:`IdSet._probe_mask`.
Only :meth:`IdSet.partition` builds one — the constructor
:meth:`~repro.xmlmodel.index.DocumentIndex.test_idset` uses for its cached
per-document partitions — and only when the partition is itself dense: at
most ``DENSITY_FACTOR`` disjoint tag partitions and the kind partitions
can qualify, so masks cost O(|D|) bytes per document however many queries
and tags it sees.  No set computed by a query ever carries one.

**Kernel backends.**  The strategy choice lives here, but the work of
each strategy leg is delegated to the process-wide kernel backend
(:mod:`repro.xmlmodel.kernels`): sparse merges, probes and the ids↔bits
conversions run as pure-Python loops under the ``pure`` backend and as
numpy array operations under ``vectorized``.  Bitmask boolean algebra is
shared — Python ``int`` bitwise operations already run at C speed.
Whatever the backend, membership results are identical; only the
concrete sequence type behind :attr:`IdSet.ids` differs (see
``docs/kernels.md``).

**Boundary conversions.**  A set leaves kernel land in one of two forms:
:meth:`IdSet.tolist` (plain Python ints, for callers that index or
serialise them one by one) and :meth:`IdSet.tobytes` (the members packed
as little-endian int32 — what the serving tier's wire frames carry, so a
served answer is never boxed into Python ints on the way out).
:func:`pack_ids` / :func:`unpack_ids` are that packed layout's one
definition.

>>> a = IdSet.from_range(2, 6, universe=8)     # {2, 3, 4, 5}
>>> b = IdSet.from_iterable([0, 3, 5], universe=8)
>>> (a & b).tolist()
[3, 5]
>>> a.complement().tolist()
[0, 1, 6, 7]
>>> len(a | b), 4 in (a | b)
(5, True)
>>> unpack_ids((a & b).tobytes())
[3, 5]
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from typing import Any, Iterable, Iterator, Union

from repro.xmlmodel.kernels import SortedIds, active_backend

__all__ = ["DENSITY_FACTOR", "IdSet", "SortedIds", "pack_ids", "unpack_ids"]

#: A set counts as dense once it holds at least ``universe / DENSITY_FACTOR``
#: members; set algebra between two dense operands runs on bitmasks.
DENSITY_FACTOR = 8


def pack_ids(members: SortedIds) -> bytes:
    """Pack an id sequence as little-endian int32, four bytes per id.

    A numpy array (the vectorized backend's members) is narrowed and
    copied out in two C calls and a ``range`` is packed by the active
    backend (one ``arange`` under ``vectorized``); any other sequence
    goes through ``array("i")``.  No Python int is created for a numpy
    input.
    """
    if isinstance(members, range):
        return active_backend().pack_range(members)
    astype = getattr(members, "astype", None)
    if astype is not None:
        packed: bytes = astype("<i4").tobytes()
        return packed
    buffer = array("i", members)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        buffer.byteswap()
    return buffer.tobytes()


def unpack_ids(packed: Union[bytes, bytearray, memoryview]) -> list[int]:
    """The inverse of :func:`pack_ids`: packed int32 back to a list of ints."""
    buffer = array("i")
    buffer.frombytes(packed)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        buffer.byteswap()
    return buffer.tolist()


class IdSet:
    """An immutable set of document-order ids over a fixed universe.

    Build one with :meth:`empty`, :meth:`full`, :meth:`from_range`,
    :meth:`from_sorted` (input must already be sorted and duplicate-free)
    or :meth:`from_iterable` (input is normalised).  All binary operations
    require both operands to share the same ``universe``.
    """

    __slots__ = ("universe", "_ids", "_bits", "_probe_mask")

    def __init__(
        self,
        universe: int,
        ids: SortedIds | None = None,
        bits: int | None = None,
    ) -> None:
        if ids is None and bits is None:
            raise ValueError("IdSet needs at least one materialisation")
        self.universe = universe
        self._ids = ids
        self._bits = bits
        #: The backend's membership form of a dense per-document partition
        #: (see the module docstring); None on every other set.
        self._probe_mask: Any = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def empty(cls, universe: int) -> "IdSet":
        """The empty set over ``[0, universe)``."""
        return cls(universe, ids=range(0, 0), bits=0)

    @classmethod
    def full(cls, universe: int) -> "IdSet":
        """The full universe ``{0, …, universe-1}``."""
        return cls(universe, ids=range(universe), bits=(1 << universe) - 1)

    @classmethod
    def from_range(cls, lo: int, hi: int, universe: int) -> "IdSet":
        """The contiguous interval ``{lo, …, hi-1}`` (empty when hi <= lo)."""
        if hi <= lo:
            return cls.empty(universe)
        return cls(universe, ids=range(lo, hi))

    @classmethod
    def from_sorted(cls, ids: SortedIds, universe: int) -> "IdSet":
        """Wrap an already-sorted, duplicate-free id sequence (not copied)."""
        return cls(universe, ids=ids)

    @classmethod
    def partition(cls, ids: SortedIds, universe: int) -> "IdSet":
        """A long-lived partition of the universe (one node test's members).

        The sorted ids are handed to the active backend once
        (``prepare_sorted``), and a partition past the density threshold
        also gets the backend's probe mask — the only sets that carry one.
        """
        backend = active_backend()
        members = backend.prepare_sorted(ids)
        result = cls(universe, ids=members)
        if len(members) * DENSITY_FACTOR >= universe:
            result._probe_mask = backend.probe_mask(members, universe)
        return result

    @classmethod
    def from_iterable(cls, ids: Iterable[int], universe: int) -> "IdSet":
        """Build from arbitrary ids, deduplicating and sorting."""
        return cls(universe, ids=sorted(set(ids)))

    @classmethod
    def from_bits(cls, bits: int, universe: int) -> "IdSet":
        """Wrap a bitmask (bit ``i`` set iff ``i`` is a member)."""
        return cls(universe, bits=bits)

    # -- materialisations -----------------------------------------------------

    @property
    def ids(self) -> SortedIds:
        """The members as a sorted sequence (materialised lazily)."""
        if self._ids is None:
            self._ids = active_backend().ids_from_bits(
                self._bits, self.universe  # type: ignore[arg-type]
            )
        return self._ids

    @property
    def bits(self) -> int:
        """The members as a bitmask (materialised lazily)."""
        if self._bits is None:
            self._bits = active_backend().bits_from_ids(
                self._ids, self.universe  # type: ignore[arg-type]
            )
        return self._bits

    @property
    def is_dense(self) -> bool:
        """True if this set is bitmask-backed or past the density threshold."""
        return self._bits is not None or len(self) * DENSITY_FACTOR >= self.universe

    def _probes(self) -> bool:
        """True if this set is sparse and ids-backed: ``&`` / ``-`` probe it."""
        ids = self._ids
        return ids is not None and len(ids) * DENSITY_FACTOR < self.universe

    def tolist(self) -> list[int]:
        """The members as a plain ``list`` of Python ints.

        This is the API-boundary conversion: whichever sequence type the
        active kernel backend produced (list, ``range``, ``array``,
        numpy array, memoryview), the result is an ordinary sorted list
        safe to serialise or hand to non-kernel code.
        """
        members = self.ids
        converter = getattr(members, "tolist", None)
        if converter is not None:
            result: list[int] = converter()
            return result
        return list(members)

    def tobytes(self) -> bytes:
        """The members packed as little-endian int32 (:func:`pack_ids`).

        The second API-boundary conversion, beside :meth:`tolist`: the
        form a node-set answer travels in, produced straight from the
        backend's sequence type without building a list of Python ints.
        """
        return pack_ids(self.ids)

    # -- protocol -------------------------------------------------------------

    def __len__(self) -> int:
        if self._ids is not None:
            return len(self._ids)
        return self._bits.bit_count()  # type: ignore[union-attr]

    def __bool__(self) -> bool:
        if self._ids is not None:
            return len(self._ids) > 0
        return self._bits != 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __contains__(self, i: int) -> bool:
        if not 0 <= i < self.universe:
            return False
        if self._bits is not None:
            return self._bits >> i & 1 == 1
        ids = self._ids
        position = bisect_left(ids, i)  # type: ignore[arg-type]
        return position < len(ids) and ids[position] == i  # type: ignore[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdSet):
            return NotImplemented
        return self.universe == other.universe and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.universe, self.bits))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = "bits" if self._ids is None else type(self._ids).__name__
        return f"<IdSet {len(self)}/{self.universe} as {shape}>"

    # -- algebra --------------------------------------------------------------

    def _check_universe(self, other: "IdSet") -> None:
        if self.universe != other.universe:
            raise ValueError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )

    def __and__(self, other: "IdSet") -> "IdSet":
        self._check_universe(other)
        universe = self.universe
        if not self or len(other) == universe:
            return self
        if not other or len(self) == universe:
            return other
        if self._probes():
            sparse, into = self, other
        elif other._probes():
            sparse, into = other, self
        else:
            return IdSet.from_bits(self.bits & other.bits, universe)
        return IdSet.from_sorted(
            active_backend().probe(sparse._ids, into, True), universe  # type: ignore[arg-type]
        )

    def __or__(self, other: "IdSet") -> "IdSet":
        self._check_universe(other)
        if not self:
            return other
        if not other:
            return self
        if self.is_dense or other.is_dense:
            return IdSet.from_bits(self.bits | other.bits, self.universe)
        return IdSet.from_sorted(
            active_backend().union_sorted(self.ids, other.ids), self.universe
        )

    def __sub__(self, other: "IdSet") -> "IdSet":
        self._check_universe(other)
        if not self or not other:
            return self
        if self._probes():
            return IdSet.from_sorted(
                active_backend().probe(self._ids, other, False), self.universe  # type: ignore[arg-type]
            )
        mask = (1 << self.universe) - 1
        return IdSet.from_bits(self.bits & (mask ^ other.bits), self.universe)

    def complement(self) -> "IdSet":
        """The universe minus this set (always on the bitmask path)."""
        mask = (1 << self.universe) - 1
        return IdSet.from_bits(mask ^ self.bits, self.universe)
