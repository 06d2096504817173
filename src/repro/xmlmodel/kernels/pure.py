"""The pure-Python kernel backend: the reference every backend must match.

This module is the id-set algebra and the axis kernels exactly as the
id-native rewrite (PR 2) shipped them, factored out of
``xmlmodel/idset.py`` and ``xmlmodel/index.py`` unchanged: flat loops
over integer arrays, frozenset membership for sparse set algebra, and a
byte-table unpack for the bitmask→ids conversion.  :func:`probe` — a
sparse operand against any other — bisects a ``range``'s two bounds,
hashes a sparse operand and otherwise tests the bytes of the operand's
bitmask, one index per member; it never hashes a dense set.  The module
has no third-party dependencies — importing it never imports numpy — and
it doubles as the differential baseline of the backend conformance suite,
which in turn checks every backend against the per-node walk of
:mod:`repro.xmlmodel.axes`.

Axis kernels take the :class:`~repro.xmlmodel.index.DocumentIndex`
itself as their per-index state (:func:`index_state` is the identity)
and a non-empty sorted id sequence; they return sorted, duplicate-free
id sequences (``list`` or, for contiguous intervals, ``range``).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xmlmodel.idset import IdSet
    from repro.xmlmodel.index import DocumentIndex
    from repro.xmlmodel.kernels import SortedIds

#: The backend name, as selected by ``REPRO_KERNEL_BACKEND=pure``.
name = "pure"

#: Bit positions set in each possible byte value — the unpack table used to
#: convert a bitmask back into sorted ids eight members at a time.
_BYTE_IDS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)
)


# -- id-set algebra (sorted-sequence paths) ---------------------------------


def intersect_sorted(a: "SortedIds", b: "SortedIds") -> "SortedIds":
    """Members of both sequences: scan the smaller against a hash of the larger."""
    small, large = sorted((a, b), key=len)
    members = frozenset(large)
    return [i for i in small if i in members]


def union_sorted(a: "SortedIds", b: "SortedIds") -> "SortedIds":
    """Members of either sequence, deduplicated and re-sorted."""
    return sorted(set(a).union(b))


def difference_sorted(a: "SortedIds", b: "SortedIds") -> "SortedIds":
    """Members of ``a`` not in ``b``."""
    members = frozenset(b)
    return [i for i in a if i not in members]


# -- probes: a sparse operand against any other form -------------------------


def probe_mask(ids: "SortedIds", universe: int) -> None:
    """No mask: the bytes of an operand's cached bitmask already serve as one."""
    return None


def probe(ids: "SortedIds", other: "IdSet", keep: bool) -> "SortedIds":
    """The members of sparse ``ids`` that ``other`` holds (``keep``) or lacks."""
    target = other._ids
    if isinstance(target, range):
        lo = bisect_left(ids, target.start)
        hi = bisect_left(ids, target.stop)
        return ids[lo:hi] if keep else [*ids[:lo], *ids[hi:]]
    if not other.is_dense:
        return (intersect_sorted if keep else difference_sorted)(ids, target)
    # The bitmask is cached on the operand (a partition or condition set
    # pays the packing once); one to_bytes copy, then an index per member.
    packed = other.bits.to_bytes((other.universe + 7) >> 3, "little")
    if keep:
        return [i for i in ids if packed[i >> 3] >> (i & 7) & 1]
    return [i for i in ids if not packed[i >> 3] >> (i & 7) & 1]


# -- density-threshold conversions ------------------------------------------


def bits_from_ids(ids: "SortedIds", universe: int) -> int:
    """Pack a sorted id sequence into a bitmask int (bit ``i`` ⇔ member ``i``)."""
    if isinstance(ids, range):
        if len(ids) == 0:
            return 0
        return ((1 << len(ids)) - 1) << ids[0]
    buffer = bytearray((universe + 7) >> 3)
    for i in ids:
        buffer[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buffer, "little")


def ids_from_bits(bits: int, universe: int) -> "SortedIds":
    """Unpack a bitmask into its sorted member list, one byte at a time."""
    out: list[int] = []
    append = out.append
    base = 0
    for byte in bits.to_bytes((universe + 7) >> 3, "little"):
        if byte:
            for bit in _BYTE_IDS[byte]:
                append(base + bit)
        base += 8
    return out


def prepare_sorted(ids: "SortedIds") -> "SortedIds":
    """Hook for backends that pre-convert long-lived sequences (identity here)."""
    return ids


def pack_range(ids: range) -> bytes:
    """A contiguous interval as little-endian int32, member by member."""
    buffer = array("i", ids)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        buffer.byteswap()
    return buffer.tobytes()


# -- axis kernels ------------------------------------------------------------


def index_state(index: "DocumentIndex") -> "DocumentIndex":
    """The pure kernels read the index's own flat lists — no conversion."""
    return index


def child(state: "DocumentIndex", ids: "SortedIds") -> "SortedIds":
    """First-child/next-sibling chain sweeps from every member."""
    first_child = state.first_child
    next_sibling = state.next_sibling
    out: list[int] = []
    append = out.append
    for i in ids:
        j = first_child[i]
        while j != -1:
            append(j)
            j = next_sibling[j]
    # Children of distinct parents are distinct, so only sorting is
    # needed (sibling runs interleave when one member sits inside
    # another member's subtree).
    out.sort()
    return out


def parent(state: "DocumentIndex", ids: "SortedIds") -> "SortedIds":
    """One array lookup per member, deduplicated."""
    parent_ids = state.parent
    return sorted({parent_ids[i] for i in ids if parent_ids[i] != -1})


def _parts(parts: list[range]) -> "SortedIds":
    """Flatten disjoint ascending ranges; a single part stays a ``range``."""
    if not parts:
        return range(0, 0)
    if len(parts) == 1:
        return parts[0]
    out: list[int] = []
    for part in parts:
        out.extend(part)
    return out


def descendant(
    state: "DocumentIndex", ids: "SortedIds", include_self: bool
) -> "SortedIds":
    """The laminar-interval decomposition of a (or-self) descendant set.

    Members are visited in ascending id order; a member inside the
    interval already covered is skipped outright, so the produced ranges
    are disjoint and ascending.
    """
    subtree_end = state.subtree_end
    parts: list[range] = []
    covered_end = -1
    for i in ids:
        if i <= covered_end:
            continue
        covered_end = subtree_end[i]
        lo = i if include_self else i + 1
        if lo <= covered_end:
            parts.append(range(lo, covered_end + 1))
    return _parts(parts)


def ancestor(state: "DocumentIndex", ids: "SortedIds") -> "SortedIds":
    """Parent-chain walks; stop as soon as a chain joins the result."""
    parent_ids = state.parent
    seen: set[int] = set()
    for i in ids:
        j = parent_ids[i]
        while j != -1 and j not in seen:
            seen.add(j)
            j = parent_ids[j]
    return sorted(seen)


def following(state: "DocumentIndex", ids: "SortedIds") -> "SortedIds":
    """following(S) = the contiguous interval past the earliest subtree end."""
    subtree_end = state.subtree_end
    cutoff = min(subtree_end[i] for i in ids)
    return range(cutoff + 1, state.size)


def preceding(state: "DocumentIndex", ids: "SortedIds") -> "SortedIds":
    """preceding(S) = [0, max S) minus the ancestors of max S.

    An id ``j < c`` has ``subtree_end[j] >= c`` exactly when it is an
    ancestor of ``c``, so the preceding set is the prefix interval with
    the ancestor chain punched out — O(depth) ranges.
    """
    cutoff = ids[-1]
    parent_ids = state.parent
    chain = []
    j = parent_ids[cutoff]
    while j != -1:
        chain.append(j)
        j = parent_ids[j]
    chain.reverse()
    bounds = chain + [cutoff]
    parts = [range(bounds[t] + 1, bounds[t + 1]) for t in range(len(bounds) - 1)]
    return _parts([part for part in parts if len(part)])


def following_sibling(state: "DocumentIndex", ids: "SortedIds") -> "SortedIds":
    """Sibling-chain walks; a chain already in the result is closed rightward."""
    next_sibling = state.next_sibling
    seen: set[int] = set()
    for i in ids:
        j = next_sibling[i]
        while j != -1 and j not in seen:
            seen.add(j)
            j = next_sibling[j]
    return sorted(seen)


def preceding_sibling(state: "DocumentIndex", ids: "SortedIds") -> "SortedIds":
    """The mirror sweep over ``prev_sibling`` chains."""
    prev_sibling = state.prev_sibling
    seen: set[int] = set()
    for i in ids:
        j = prev_sibling[i]
        while j != -1 and j not in seen:
            seen.add(j)
            j = prev_sibling[j]
    return sorted(seen)
