"""`CorpusStore`: a directory of document snapshots behind one manifest.

The store is the persistence layer a serving process points an
:class:`~repro.engine.XPathEngine` at (``engine.attach_store(store)``):
documents go in once via :meth:`CorpusStore.put`, and every later
process — or the same process after an LRU eviction — hydrates them back
with :meth:`CorpusStore.get` at snapshot-load speed — the snapshot's
columns become the document's, no parse, no node objects.

Layout::

    <root>/
        manifest.json            # {"version": 1, "entries": {key: entry}}
        snapshots/<hash>.snap    # one snapshot file per distinct content

Snapshots are **content-hash keyed**: the file name is the SHA-256 of
the snapshot bytes (which are deterministic per document), so logically
equal documents stored under different keys share one file, and a
snapshot file can never be half-updated — it either exists with its
advertised content or not at all.  Both the snapshot files and the
manifest are written atomically (temp file + ``os.replace`` in the same
directory), so a crashed or concurrent writer never leaves a torn store.

Keys default to the content hash; pass ``key="..."`` for human names.
Re-putting a key overwrites its manifest entry (pointing it at the new
content) but never mutates snapshot bytes in place.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.errors import ReproError
from repro.store.codec import (
    SnapshotError,
    dump_snapshot,
    load_snapshot,
    snapshot_hash,
)
from repro.xmlmodel.document import Document
from repro.xmlmodel.parser import parse_xml

MANIFEST_VERSION = 1
SNAPSHOT_SUFFIX = ".snap"

#: Snapshot files are named by SHA-256 hex digests and nothing else; the
#: raw-hash addressing fallback refuses anything that does not look like
#: one, so keys can never traverse outside ``snapshots/``.
_CONTENT_HASH = re.compile(r"^[0-9a-f]{64}$")


class StoreError(ReproError):
    """The corpus store is missing, malformed, or rejected an operation."""


class StoreKeyError(StoreError, KeyError):
    """A key is not present in the store (also catchable as KeyError)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message plain
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class StoreEntry:
    """One manifest entry: a key bound to snapshot content."""

    key: str
    hash: str
    nodes: int
    bytes: int
    root_tag: Optional[str]

    def to_json(self) -> dict:
        return {
            "hash": self.hash,
            "nodes": self.nodes,
            "bytes": self.bytes,
            "root_tag": self.root_tag,
        }

    @classmethod
    def from_json(cls, key: str, payload: dict) -> "StoreEntry":
        return cls(
            key=key,
            hash=payload["hash"],
            nodes=payload["nodes"],
            bytes=payload["bytes"],
            root_tag=payload.get("root_tag"),
        )


class CorpusStore:
    """A persistent, content-addressed corpus of document snapshots.

    Parameters
    ----------
    root:
        Directory to hold the manifest and snapshots; created (with
        parents) if missing.

    All methods are safe under concurrent use from one process (one lock
    serialises manifest writes); cross-process writers are safe against
    torn files via atomic replace, with last-writer-wins manifest
    semantics.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = os.fspath(root)
        self._snapshots = os.path.join(self.root, "snapshots")
        self._manifest_path = os.path.join(self.root, "manifest.json")
        self._lock = threading.Lock()
        # stat-keyed manifest cache: a serving loop stats the file once
        # per lookup instead of re-parsing JSON per query.  The stamp is
        # (mtime_ns, inode, size) — os.replace always installs a new
        # inode, so two writes inside one clock tick on a coarse-mtime
        # filesystem still change the stamp.  Stamp and entries live in
        # ONE tuple assigned atomically — separate attributes could
        # interleave under concurrent readers and pair old entries with
        # the new file's stamp, serving them stale until the next write.
        # The cached dict is never mutated in place (writers build a
        # copy), so readers may use it without the lock.
        self._manifest_state: Optional[tuple[tuple, dict[str, StoreEntry]]] = None
        os.makedirs(self._snapshots, exist_ok=True)
        if not os.path.exists(self._manifest_path):
            self._write_manifest({})

    # -- manifest ----------------------------------------------------------

    def _read_manifest(self) -> dict[str, StoreEntry]:
        """The manifest entries (cached until the file's mtime changes).

        Treat the returned mapping as read-only; copy before mutating.
        """
        try:
            status = os.stat(self._manifest_path)
        except FileNotFoundError:
            return {}
        stamp = (status.st_mtime_ns, status.st_ino, status.st_size)
        state = self._manifest_state
        if state is not None and state[0] == stamp:
            return state[1]
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return {}
        except (OSError, json.JSONDecodeError) as error:
            raise StoreError(f"unreadable store manifest: {error}") from error
        if payload.get("version") != MANIFEST_VERSION:
            raise StoreError(
                f"store manifest version {payload.get('version')!r} is not "
                f"supported (this build reads version {MANIFEST_VERSION})"
            )
        entries = {
            key: StoreEntry.from_json(key, entry)
            for key, entry in payload.get("entries", {}).items()
        }
        self._manifest_state = (stamp, entries)
        return entries

    def _write_manifest(self, entries: dict[str, StoreEntry]) -> None:
        payload = {
            "version": MANIFEST_VERSION,
            "entries": {
                key: entries[key].to_json() for key in sorted(entries)
            },
        }
        # No ``indent``: it selects the pure-Python encoder, several times
        # slower, on a file every ``put`` rewrites (``repro store ls`` is
        # the human-readable view).
        _atomic_write(
            self._manifest_path,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )
        # Invalidate rather than prime: stat-ing the replaced file here
        # could stamp our entries with a concurrent writer's mtime and
        # serve them stale forever.  The next read re-parses once.
        self._manifest_state = None

    def _snapshot_path(self, content_hash: str) -> str:
        if not _CONTENT_HASH.match(content_hash):
            raise StoreError(
                f"{content_hash!r} is not a snapshot content hash"
            )
        return os.path.join(self._snapshots, content_hash + SNAPSHOT_SUFFIX)

    # -- writing -----------------------------------------------------------

    def put(
        self, source: Union[Document, str], key: Optional[str] = None
    ) -> StoreEntry:
        """Snapshot ``source`` into the store and return its entry.

        ``source`` may be a :class:`Document` or XML text (parsed here,
        once — the point of the store is that nobody parses it again).
        ``key`` defaults to the snapshot's content hash.  Writing is
        idempotent: identical content lands in one shared snapshot file.
        """
        document = parse_xml(source) if isinstance(source, str) else source
        if not isinstance(document, Document):
            raise TypeError(
                f"expected a Document or XML text, got {type(document).__name__}"
            )
        blob = dump_snapshot(document)
        content_hash = snapshot_hash(blob)
        entry = StoreEntry(
            key=key if key is not None else content_hash,
            hash=content_hash,
            nodes=len(document.columns.kinds),
            bytes=len(blob),
            root_tag=document.root_tag,
        )
        path = self._snapshot_path(content_hash)
        with self._lock:
            if not os.path.exists(path):
                _atomic_write(path, blob)
            entries = dict(self._read_manifest())
            entries[entry.key] = entry
            self._write_manifest(entries)
        document.snapshot_hash = content_hash
        return entry

    def delete(self, key: str) -> None:
        """Drop ``key`` from the manifest (snapshot bytes stay shared)."""
        with self._lock:
            entries = dict(self._read_manifest())
            if key not in entries:
                raise StoreKeyError(f"store has no document {key!r}")
            del entries[key]
            self._write_manifest(entries)

    # -- reading -----------------------------------------------------------

    def stat(self, key: str) -> StoreEntry:
        """Return the manifest entry for ``key`` without loading anything."""
        entries = self._read_manifest()
        entry = entries.get(key)
        if entry is None:
            # A raw content hash is always addressable, named or not
            # (anything not shaped like a sha256 digest never reaches
            # the filesystem — see _snapshot_path).
            if _CONTENT_HASH.match(key):
                path = self._snapshot_path(key)
                if os.path.exists(path):
                    return StoreEntry(
                        key=key,
                        hash=key,
                        nodes=-1,
                        bytes=os.path.getsize(path),
                        root_tag=None,
                    )
            raise StoreKeyError(f"store has no document {key!r}")
        return entry

    def get(self, key: str, mmap: bool = False) -> Document:
        """Load the document stored under ``key`` (or a raw content hash).

        With ``mmap=True`` the snapshot file is memory-mapped and the
        document's columns stay zero-copy views over it — the mapping
        lives as long as the document references it, and its pages are
        shared between every process that maps the same snapshot.  The
        eager path digest-checks the bytes against the content hash
        before decoding; the mmap path skips the digest and relies on the
        codec's structural validation.  Corruption of any kind surfaces
        as :class:`StoreError` or
        :class:`~repro.store.codec.SnapshotError`, never a raw decode
        exception.  Neither path builds node objects.
        """
        entry = self.stat(key)
        path = self._snapshot_path(entry.hash)
        try:
            if mmap:
                import mmap as mmap_module

                with open(path, "rb") as handle:
                    mapping = mmap_module.mmap(
                        handle.fileno(), 0, access=mmap_module.ACCESS_READ
                    )
                # The document's columns are views into `mapping`, which
                # keeps the mapping (and its pages) alive via refcount.
                document = load_snapshot(mapping, lazy=True)
            else:
                with open(path, "rb") as handle:
                    blob = handle.read()
                if snapshot_hash(blob) != entry.hash:
                    raise StoreError(
                        f"snapshot {entry.hash} for key {key!r} failed its "
                        "content-hash check (corrupt or tampered bytes)"
                    )
                document = load_snapshot(blob)
        except FileNotFoundError:
            raise StoreError(
                f"manifest names snapshot {entry.hash} for key {key!r}, "
                "but the snapshot file is missing"
            ) from None
        except (StoreError, SnapshotError):
            raise  # already well-typed (both are ReproErrors)
        except Exception as error:
            # Anything else escaping the decoder is corruption the framing
            # checks could not classify (e.g. a bit flip inside a string
            # table surfacing as UnicodeDecodeError).
            raise StoreError(
                f"snapshot {entry.hash} for key {key!r} is unreadable: {error}"
            ) from error
        # Stamp the content identity so callers (the engine's store-keyed
        # registry, cross-process shipping) can recognise re-hydrations of
        # the same snapshot without re-hashing.
        document.snapshot_hash = entry.hash
        return document

    def read_bytes(self, key: str) -> bytes:
        """Return the raw snapshot bytes for ``key`` (for shipping/inspection)."""
        entry = self.stat(key)
        with open(self._snapshot_path(entry.hash), "rb") as handle:
            return handle.read()

    # -- enumeration -------------------------------------------------------

    def list(self) -> list[StoreEntry]:
        """Every manifest entry, sorted by key."""
        return [entry for _, entry in sorted(self._read_manifest().items())]

    # -- sharding ----------------------------------------------------------

    def shard_layout(self, shards: int) -> list[list[StoreEntry]]:
        """Partition the manifest into ``shards`` deterministic shards.

        This is the worker warm-up protocol's document assignment: shard
        ``i`` holds exactly the entries with ``shard_of(entry.hash,
        shards) == i``, so any process that can read the manifest — the
        serving pool routing requests, a worker hydrating its warm set, a
        CLI previewing the layout — computes the same partition without
        coordination.  Keys aliasing identical content land in the same
        shard (assignment is by content hash), sorted by key within it.
        """
        layout: list[list[StoreEntry]] = [[] for _ in range(shards)]
        for entry in self.list():
            layout[shard_of(entry.hash, shards)].append(entry)
        return layout

    def total_bytes(self) -> int:
        """Sum of snapshot byte sizes over the manifest (aliases recounted)."""
        return sum(entry.bytes for entry in self.list())

    def keys(self) -> list[str]:
        """Every manifest key, sorted."""
        return sorted(self._read_manifest())

    def __contains__(self, key: str) -> bool:
        if key in self._read_manifest():
            return True
        return bool(_CONTENT_HASH.match(key)) and os.path.exists(
            self._snapshot_path(key)
        )

    def __len__(self) -> int:
        return len(self._read_manifest())

    def __iter__(self) -> Iterator[StoreEntry]:
        return iter(self.list())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CorpusStore {self.root!r} entries={len(self)}>"


def shard_of(content_hash: str, shards: int) -> int:
    """Deterministic shard assignment of a snapshot content hash.

    The first eight hex digits of the (uniformly distributed) SHA-256
    content hash modulo the shard count: stable across processes, Python
    versions and hash-randomisation seeds, so a serving pool's routing
    and a worker's warm-up set always agree.

    >>> shard_of("00000003" + "0" * 56, 4)
    3
    >>> shard_of("a1b2c3d4" + "0" * 56, 1)
    0
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if not _CONTENT_HASH.match(content_hash):
        raise StoreError(f"{content_hash!r} is not a snapshot content hash")
    return int(content_hash[:8], 16) % shards


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (same-directory temp + replace)."""
    directory = os.path.dirname(path)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
