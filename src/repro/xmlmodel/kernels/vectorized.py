"""The numpy-vectorised kernel backend.

Every kernel here computes *exactly* the membership the pure backend
computes — the conformance suite asserts it op by op — but replaces the
per-id Python loops with whole-array numpy operations:

* the sparse set algebra runs on sorted int64 arrays via
  ``searchsorted`` membership probes (intersection/difference) and a
  concatenate + stable sort + adjacent-difference dedup (union);
* :func:`probe` keeps the members of a sparse operand that are in (or
  not in) any other operand without converting either: a gather from the
  operand's boolean probe mask when it has one (dense per-document
  partitions, built by :func:`probe_mask`), two ``searchsorted`` bounds
  against a ``range``, the ``searchsorted`` membership probe above
  against sorted ids, and a gather from the bitmask unpacked for this one
  call when bits are all the operand has;
* the density-threshold conversions pack/unpack the bitmask through
  ``numpy.packbits``/``numpy.unpackbits`` instead of a per-byte table
  walk (``nonzero`` runs on a *bool* view of the unpacked bytes — its
  uint8 path is numpy's generic one, 4–10× slower);
* ``child``/``following-sibling``/``preceding-sibling`` become O(|D|)
  boolean-mask selections over the structure arrays (a node is a child
  of S iff its parent is in S; a sibling test compares against the
  per-parent min/max member, scattered in the order that leaves the
  extreme written last);
* ``descendant``/``following``/``preceding`` stay interval arithmetic,
  with the laminar-interval decomposition computed by a running-maximum
  scan and expanded by one ``repeat``/``arange`` step;
* ``ancestor`` uses the interval characterisation directly — ``j`` is an
  ancestor of some member iff a member lies in ``(j, subtree_end[j]]`` —
  as a difference of prefix counts, so deep trees cost O(|D|) rather
  than a chain walk per member.

Results are sorted numpy arrays (``range`` objects for contiguous
intervals); they flow back into :class:`~repro.xmlmodel.idset.IdSet`
unconverted and are turned into Python ints only at the API boundary
(:meth:`IdSet.tolist`, node materialisation).

This module is only imported once numpy has been resolved — backend
selection in :mod:`repro.xmlmodel.kernels` guarantees the pure path
never touches it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xmlmodel.idset import IdSet
    from repro.xmlmodel.index import DocumentIndex
    from repro.xmlmodel.kernels import SortedIds

#: The backend name, as selected by ``REPRO_KERNEL_BACKEND=vectorized``.
name = "vectorized"

_EMPTY = np.empty(0, dtype=np.int64)


def _as_array(ids: "SortedIds") -> Any:
    """View a sorted id sequence as an int64 numpy array (no-op if it is one)."""
    if isinstance(ids, np.ndarray):
        return ids
    if isinstance(ids, range):
        return np.arange(ids.start, ids.stop, dtype=np.int64)
    return np.asarray(ids, dtype=np.int64)


# -- id-set algebra (sorted-sequence paths) ---------------------------------


def intersect_sorted(a: "SortedIds", b: "SortedIds") -> "SortedIds":
    """Probe the smaller operand against the larger with ``searchsorted``."""
    small, large = _as_array(a), _as_array(b)
    if small.size > large.size:
        small, large = large, small
    if small.size == 0 or large.size == 0:
        return _EMPTY
    # A probe past the end clips onto the last element, which it exceeds.
    hit = large.take(np.searchsorted(large, small), mode="clip") == small
    return small[hit]


def _drop_adjacent_duplicates(found: Any) -> Any:
    """A sorted array without its repeats, by one adjacent-difference pass.

    (numpy's set routines would do, but their hash-based path costs ~3×
    a plain sort on 10k gathered parents and ~20× on a 1 800-id union.)
    """
    if found.size <= 1:
        return found
    keep = np.empty(found.size, dtype=bool)
    keep[0] = True
    np.not_equal(found[1:], found[:-1], out=keep[1:])
    return found[keep]


def union_sorted(a: "SortedIds", b: "SortedIds") -> "SortedIds":
    """Sorted union of two sorted duplicate-free arrays.

    The concatenation is two ascending runs, which the stable sort
    merges in one pass.
    """
    merged = np.concatenate((_as_array(a), _as_array(b)))
    merged.sort(kind="stable")
    return _drop_adjacent_duplicates(merged)


def difference_sorted(a: "SortedIds", b: "SortedIds") -> "SortedIds":
    """Members of ``a`` absent from ``b`` (same probe as intersection)."""
    keep, drop = _as_array(a), _as_array(b)
    if keep.size == 0 or drop.size == 0:
        return keep
    hit = drop.take(np.searchsorted(drop, keep), mode="clip") == keep
    return keep[~hit]


# -- probes: a sparse operand against any other form -------------------------


def _unpacked(bits: int, universe: int) -> Any:
    """The bitmask as a bool array: ``flags[i]`` iff ``i`` is a member."""
    buffer = np.frombuffer(bits.to_bytes((universe + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(buffer, bitorder="little", count=universe).view(bool)


def probe_mask(ids: "SortedIds", universe: int) -> Any:
    """The bool membership mask :func:`probe` gathers from (O(universe) bytes)."""
    mask = np.zeros(universe, dtype=bool)
    mask[_as_array(ids)] = True
    return mask


def probe(ids: "SortedIds", other: "IdSet", keep: bool) -> "SortedIds":
    """The members of sparse ``ids`` that ``other`` holds (``keep``) or lacks."""
    members = _as_array(ids)
    mask = other._probe_mask
    target = other._ids
    if mask is not None:
        hit = mask[members]
    elif target is None:
        hit = _unpacked(other._bits, other.universe)[members]
    elif isinstance(target, range):
        lo, hi = np.searchsorted(members, (target.start, target.stop))
        if keep:
            return members[lo:hi]
        return np.concatenate((members[:lo], members[hi:]))
    elif other.is_dense:
        # One pass over the dense operand, as a merge would make.
        hit = probe_mask(target, other.universe)[members]
    else:
        return (intersect_sorted if keep else difference_sorted)(members, target)
    return members[hit] if keep else members[~hit]


# -- density-threshold conversions ------------------------------------------


def bits_from_ids(ids: "SortedIds", universe: int) -> int:
    """Pack ids into the bitmask via a flag array and ``numpy.packbits``."""
    if isinstance(ids, range):
        if len(ids) == 0:
            return 0
        return ((1 << len(ids)) - 1) << ids[0]
    members = _as_array(ids)
    if members.size == 0:
        return 0
    flags = np.zeros(((universe + 7) >> 3) << 3, dtype=np.uint8)
    flags[members] = 1
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def ids_from_bits(bits: int, universe: int) -> "SortedIds":
    """Unpack the bitmask via ``numpy.unpackbits`` + ``nonzero``."""
    if bits == 0:
        return _EMPTY
    return np.nonzero(_unpacked(bits, universe))[0]


def prepare_sorted(ids: "SortedIds") -> "SortedIds":
    """Convert long-lived sequences (tag partitions) to arrays exactly once."""
    if isinstance(ids, range):
        return ids
    return _as_array(ids)


def pack_range(ids: range) -> bytes:
    """A contiguous interval as little-endian int32, without visiting its members."""
    return np.arange(ids.start, ids.stop, dtype="<i4").tobytes()


# -- axis kernels ------------------------------------------------------------


class _IndexState:
    """Per-index numpy copies of the structure arrays the kernels read.

    Attribute names deliberately differ from the ``DocumentIndex`` slots
    (``parents`` vs ``parent`` …): these are private per-backend copies,
    not the frozen snapshot-shared arrays the immutability rule guards.
    """

    __slots__ = ("size", "parents", "ends", "firsts", "nexts", "prevs", "all_ids")

    def __init__(self, index: "DocumentIndex") -> None:
        self.size = index.size
        self.parents = np.asarray(index.parent, dtype=np.int64)
        self.ends = np.asarray(index.subtree_end, dtype=np.int64)
        self.firsts = np.asarray(index.first_child, dtype=np.int64)
        self.nexts = np.asarray(index.next_sibling, dtype=np.int64)
        self.prevs = np.asarray(index.prev_sibling, dtype=np.int64)
        self.all_ids = np.arange(index.size, dtype=np.int64)


def index_state(index: "DocumentIndex") -> _IndexState:
    """Build (once per index) the array state the kernels below consume."""
    return _IndexState(index)


def child(state: _IndexState, ids: "SortedIds") -> "SortedIds":
    """children(S) = { j : parent[j] ∈ S }, via one boolean-mask gather."""
    members = _as_array(ids)
    # Slot `size` (reached through parent == -1 wrapping to the last
    # index) stays False: members are always < size.
    mask = np.zeros(state.size + 1, dtype=bool)
    mask[members] = True
    return np.nonzero(mask[state.parents])[0]


def parent(state: _IndexState, ids: "SortedIds") -> "SortedIds":
    """One gather plus a sort and adjacent-difference dedup."""
    found = state.parents[_as_array(ids)]
    return _drop_adjacent_duplicates(np.sort(found[found >= 0]))


def descendant(
    state: _IndexState, ids: "SortedIds", include_self: bool
) -> "SortedIds":
    """Laminar-interval decomposition by a running-max scan, then expansion."""
    members = _as_array(ids)
    ends = state.ends[members]
    if members.size == 1:
        lo = int(members[0]) + (0 if include_self else 1)
        return range(lo, int(ends[0]) + 1)
    # Subtree intervals are laminar: sorted by start, an interval is new
    # exactly when its start passes every earlier end.
    keep = np.empty(members.size, dtype=bool)
    keep[0] = True
    np.greater(members[1:], np.maximum.accumulate(ends)[:-1], out=keep[1:])
    lo = members[keep] + (0 if include_self else 1)
    hi = ends[keep] + 1
    lengths = hi - lo
    nonempty = lengths > 0
    lo, lengths = lo[nonempty], lengths[nonempty]
    if lo.size == 0:
        return range(0, 0)
    if lo.size == 1:
        return range(int(lo[0]), int(lo[0] + lengths[0]))
    # Expand disjoint ascending intervals in one repeat/arange step:
    # position p of part k holds lo[k] + (p - offset[k]).
    total = int(lengths.sum())
    offsets = np.concatenate(([0], np.cumsum(lengths[:-1])))
    return np.repeat(lo - offsets, lengths) + np.arange(total, dtype=np.int64)


def ancestor(state: _IndexState, ids: "SortedIds") -> "SortedIds":
    """ancestors(S) = { j : some i ∈ S has j < i ≤ subtree_end[j] }.

    With ``count[k]`` the number of members ``≤ k``, a member lies in
    ``(j, subtree_end[j]]`` iff ``count[subtree_end[j]] > count[j]`` — one
    prefix sum and one gather replace every parent-chain walk, so cost is
    O(|D|) even on depth-|D| chains.
    """
    flags = np.zeros(state.size, dtype=bool)
    flags[_as_array(ids)] = True
    count = np.cumsum(flags, dtype=np.int32)
    return np.nonzero(count[state.ends] > count)[0]


def following(state: _IndexState, ids: "SortedIds") -> "SortedIds":
    """following(S) = the contiguous interval past the earliest subtree end."""
    cutoff = int(state.ends[_as_array(ids)].min())
    return range(cutoff + 1, state.size)


def preceding(state: _IndexState, ids: "SortedIds") -> "SortedIds":
    """preceding(S) = { j < max S : subtree_end[j] < max S }, one masked scan."""
    cutoff = int(_as_array(ids)[-1])
    return np.nonzero(state.ends[:cutoff] < cutoff)[0]


def following_sibling(state: _IndexState, ids: "SortedIds") -> "SortedIds":
    """j follows a sibling in S iff the least member under parent[j] is < j.

    A scatter through a 1-D index array with repeats keeps the value
    written last, so writing the members in descending order leaves each
    parent's least (the conformance suite's several-members-under-one-
    parent frontiers pin that numpy behaviour).
    """
    members = _as_array(ids)[::-1]
    # The sentinel `size` never satisfies `< j`.  Slot `size` is where the
    # root's parent, -1, wraps to: only the root (as a member) writes it,
    # with its own id, and only the root reads it back — and no node
    # follows itself — so the slot needs no re-arming.
    least_member = np.full(state.size + 1, state.size, dtype=np.int64)
    least_member[state.parents[members]] = members
    return np.nonzero(least_member[state.parents] < state.all_ids)[0]


def preceding_sibling(state: _IndexState, ids: "SortedIds") -> "SortedIds":
    """j precedes a sibling in S iff the greatest member under parent[j] is > j.

    The mirror scatter: ascending order leaves each parent's greatest
    (and the root's slot is as harmless as above).
    """
    members = _as_array(ids)
    greatest_member = np.full(state.size + 1, -1, dtype=np.int64)
    greatest_member[state.parents[members]] = members
    return np.nonzero(greatest_member[state.parents] > state.all_ids)[0]
