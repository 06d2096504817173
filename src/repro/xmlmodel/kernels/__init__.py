"""Pluggable kernel backends for the id-set algebra and axis kernels.

The id-native evaluation core bottoms out in a small number of *kernels*:
the sorted-array half of the :class:`~repro.xmlmodel.idset.IdSet` algebra
(intersection, union, difference on sorted id sequences), the *probe*
that intersects or subtracts a sparse operand against an operand of any
other form without converting either, the conversions between the
sorted-array and bitmask materialisations, and the set-at-a-time axis
kernels of
:class:`~repro.xmlmodel.index.DocumentIndex` (child/parent sweeps,
interval arithmetic for ``descendant``/``following``/``preceding``,
sibling-partition tests).  This package makes those kernels a swappable
**backend** behind one interface:

* :mod:`repro.xmlmodel.kernels.pure` — the reference implementation:
  pure-Python loops over flat integer arrays, exactly the code the
  id-native rewrite (PR 2) landed.  It has no third-party dependencies
  and is the differential baseline every other backend is tested
  against.
* :mod:`repro.xmlmodel.kernels.vectorized` — numpy-vectorised kernels
  over int32/int64 arrays; selected automatically when :mod:`numpy`
  imports, and typically ≥3× faster on 10k-node workloads (benchmark
  E20).

Selection happens once at import: ``REPRO_KERNEL_BACKEND=pure`` or
``=vectorized`` forces a backend (an unknown name raises
:class:`~repro.errors.KernelBackendError`), otherwise ``vectorized`` is
picked when numpy is importable and ``pure`` when it is not.  When the
pure backend is selected — explicitly or by fallback — numpy is never
imported.  The active backend is surfaced by
:meth:`repro.engine.XPathEngine.stats` and swappable for tests and
benchmarks via :func:`use_backend`.

Backends are *modules* implementing the :class:`KernelBackend` protocol.
All results are plain memberships: the same ids, in the same sorted
order, whichever backend computed them — the conformance suite
(``tests/xmlmodel/test_kernel_conformance.py``) and the Hypothesis
differential properties (``tests/properties/test_property_kernel_backends.py``)
fail if two backends ever disagree.

>>> from repro.xmlmodel.kernels import active_backend, use_backend
>>> active_backend().name in ("pure", "vectorized")
True
>>> with use_backend("pure") as backend:
...     backend.name
'pure'
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Protocol, Sequence, Union

from repro.errors import KernelBackendError

if TYPE_CHECKING:  # pragma: no cover - idset.py imports this package
    from repro.xmlmodel.idset import IdSet

#: A sorted, duplicate-free id sequence.  Backends may return any
#: integer sequence honouring that contract: the pure backend returns
#: ``list``/``range`` values, the vectorized backend numpy arrays (and
#: ``range`` for contiguous intervals, so interval results stay O(1)).
SortedIds = Union[Sequence[int], range]

#: Environment variable forcing backend selection at import.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The backends this package knows how to resolve.
BACKEND_NAMES: tuple[str, ...] = ("pure", "vectorized")


class KernelBackend(Protocol):
    """The kernel surface :class:`IdSet` and :class:`DocumentIndex` delegate to.

    A backend is a module (or any object) providing these attributes.
    Set-algebra kernels receive the *sparse* (sorted-sequence) operands —
    the bitmask half of the algebra is shared, since Python-int boolean
    algebra already runs at C speed.  :meth:`probe` receives the sparse
    operand's ids and the *other operand whole* (non-empty, same
    universe), because which of its forms is cheapest to test against —
    ``_probe_mask``, a ``range``'s bounds, sorted ``_ids``, ``_bits`` —
    is the backend's call; it must not leave a new materialisation on an
    operand other than the cached bitmask.  Axis kernels receive a per-index
    ``state`` built once by :meth:`index_state` (the pure backend uses
    the :class:`~repro.xmlmodel.index.DocumentIndex` itself; the
    vectorized backend builds numpy copies of its arrays) plus a
    non-empty sorted id sequence, and return the resulting sorted ids.
    """

    name: str

    # -- id-set algebra (sorted-sequence paths) -----------------------------
    def intersect_sorted(self, a: SortedIds, b: SortedIds) -> SortedIds: ...
    def union_sorted(self, a: SortedIds, b: SortedIds) -> SortedIds: ...
    def difference_sorted(self, a: SortedIds, b: SortedIds) -> SortedIds: ...

    # -- probes: a sparse operand against any other form ---------------------
    def probe(self, ids: SortedIds, other: "IdSet", keep: bool) -> SortedIds: ...
    def probe_mask(self, ids: SortedIds, universe: int) -> Any: ...

    # -- conversions ----------------------------------------------------------
    def bits_from_ids(self, ids: SortedIds, universe: int) -> int: ...
    def ids_from_bits(self, bits: int, universe: int) -> SortedIds: ...
    def prepare_sorted(self, ids: SortedIds) -> SortedIds: ...
    def pack_range(self, ids: range) -> bytes: ...

    # -- axis kernels --------------------------------------------------------
    def index_state(self, index: Any) -> Any: ...
    def child(self, state: Any, ids: SortedIds) -> SortedIds: ...
    def parent(self, state: Any, ids: SortedIds) -> SortedIds: ...
    def descendant(
        self, state: Any, ids: SortedIds, include_self: bool
    ) -> SortedIds: ...
    def ancestor(self, state: Any, ids: SortedIds) -> SortedIds: ...
    def following(self, state: Any, ids: SortedIds) -> SortedIds: ...
    def preceding(self, state: Any, ids: SortedIds) -> SortedIds: ...
    def following_sibling(self, state: Any, ids: SortedIds) -> SortedIds: ...
    def preceding_sibling(self, state: Any, ids: SortedIds) -> SortedIds: ...


def available_backends() -> tuple[str, ...]:
    """The backend names resolvable *right now* (numpy gates vectorized)."""
    try:
        import numpy  # noqa: F401  (availability probe only)
    except ImportError:
        return ("pure",)
    return BACKEND_NAMES


def backend_by_name(name: str) -> KernelBackend:
    """Resolve a backend by name, raising the typed error for unknown names."""
    if name == "pure":
        from repro.xmlmodel.kernels import pure

        return pure  # type: ignore[return-value]
    if name == "vectorized":
        try:
            import numpy  # noqa: F401
        except ImportError as error:
            raise KernelBackendError(
                "kernel backend 'vectorized' requires numpy, which is not "
                "importable; install numpy or select "
                f"{BACKEND_ENV_VAR}=pure"
            ) from error
        from repro.xmlmodel.kernels import vectorized

        return vectorized  # type: ignore[return-value]
    raise KernelBackendError(
        f"unknown kernel backend {name!r}; expected one of "
        f"{', '.join(BACKEND_NAMES)}"
    )


def _select_backend() -> KernelBackend:
    """Import-time selection: env override first, then numpy auto-probe.

    The explicit override is resolved strictly (a missing numpy under
    ``=vectorized`` raises rather than silently degrading); without an
    override the probe falls back to pure, and — because the override
    path never probes — ``{BACKEND_ENV_VAR}=pure`` never imports numpy.
    """
    requested = os.environ.get(BACKEND_ENV_VAR)
    if requested is not None and requested.strip():
        return backend_by_name(requested.strip())
    try:
        import numpy  # noqa: F401
    except ImportError:
        return backend_by_name("pure")
    return backend_by_name("vectorized")


_active: KernelBackend = _select_backend()


def active_backend() -> KernelBackend:
    """The backend currently answering every kernel delegation."""
    return _active


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily swap the active backend (tests, benchmarks, demos).

    The swap is process-global, exactly like the import-time selection it
    overrides, so it is not safe under concurrent evaluation — use it
    around self-contained measurement or verification blocks only.
    """
    global _active
    previous = _active
    _active = backend_by_name(name)
    try:
        yield _active
    finally:
        _active = previous


__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "KernelBackend",
    "SortedIds",
    "active_backend",
    "available_backends",
    "backend_by_name",
    "use_backend",
]
