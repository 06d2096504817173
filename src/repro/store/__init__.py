"""Persistent column snapshots and the corpus store.

The subsystem has two layers plus an engine hook:

* :mod:`repro.store.codec` — :func:`dump_snapshot` / :func:`load_snapshot`
  turn the :class:`~repro.xmlmodel.columns.Columns` of a
  :class:`~repro.xmlmodel.document.Document` into deterministic framed
  bytes and back, with no XML parsing, no structure derivation and no
  node objects in either direction (eager copies or zero-copy/mmap
  views, validated at load);
* :mod:`repro.store.corpus` — :class:`CorpusStore`, a content-hash-keyed
  snapshot directory (manifest + atomic writes) with
  ``put``/``get``/``list``/``stat``;
* :class:`StoreKey` — a tiny marker wrapper so store keys can flow
  through :meth:`repro.engine.XPathEngine.evaluate` and the batch entry
  points wherever a document is expected.

See ``docs/store.md`` for the on-disk format and versioning policy.
"""

from repro.store.codec import (
    SnapshotError,
    dump_snapshot,
    load_snapshot,
    load_snapshot_with_hash,
    snapshot_hash,
)
from repro.store.corpus import (
    CorpusStore,
    StoreEntry,
    StoreError,
    StoreKeyError,
    shard_of,
)


class StoreKey(str):
    """A store key usable wherever the engine API accepts a document.

    ``engine.evaluate("//a", StoreKey("catalogue"))`` hydrates the
    document from the engine's attached store (warm registry entries are
    reused without touching disk).  It subclasses :class:`str` so CLI
    arguments and manifest keys pass through unchanged.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoreKey({str.__repr__(self)})"


__all__ = [
    "CorpusStore",
    "SnapshotError",
    "StoreEntry",
    "StoreError",
    "StoreKey",
    "StoreKeyError",
    "dump_snapshot",
    "load_snapshot",
    "load_snapshot_with_hash",
    "shard_of",
    "snapshot_hash",
]
