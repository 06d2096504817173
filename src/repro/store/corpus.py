"""`CorpusStore`: a directory of document snapshots behind one manifest.

The store is the persistence layer a serving process points an
:class:`~repro.engine.XPathEngine` at (``engine.attach_store(store)``):
documents go in once via :meth:`CorpusStore.put`, and every later
process — or the same process after an LRU eviction — hydrates them back
with :meth:`CorpusStore.get` at snapshot-load speed — the snapshot's
columns become the document's, no parse, no node objects.

Layout::

    <root>/
        manifest.json            # a checkpoint, then one line per change
        snapshots/<hash>.snap    # one snapshot file per distinct content

Snapshots are **content-hash keyed**: the file name is the SHA-256 of
the snapshot bytes (which are deterministic per document), so logically
equal documents stored under different keys share one file, and a
snapshot file can never be half-updated — it either exists with its
advertised content or not at all (temp file + ``os.replace`` in the same
directory).

The manifest is an **append-only journal**: a checkpoint
``{"entries": {key: entry}, "version": 2}`` followed by zero or more
delta lines, ``{"key": k, "entry": {…}}`` for a ``put`` and
``{"key": k, "entry": null}`` for a ``delete``, each appended with one
``write`` while the writer holds the store's in-process lock and an
exclusive ``flock`` on the file.  A ``put`` therefore costs the document
it stores, not the corpus it joins.  Readers take no file lock: they
stat the file per lookup and parse only the lines they have not seen; a
final line without its newline is not committed yet and is left for the
next read.  :meth:`CorpusStore.compact` folds the deltas back into a
checkpoint (temp file + ``os.replace``), and ``put``/``delete`` do so on
their own once the deltas outnumber the live entries.  A version-1
manifest of an older build is a checkpoint with no deltas: it opens and
accepts appends as it is.  ``docs/store.md`` has the format in full.

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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - platforms without flock
    fcntl = None  # type: ignore[assignment]

from repro.errors import ReproError
from repro.store.codec import (
    SnapshotError,
    dump_snapshot,
    load_snapshot,
    snapshot_hash,
)
from repro.xmlmodel.document import Document
from repro.xmlmodel.parser import parse_xml

#: The version this build writes into a checkpoint.  Version 1 is the
#: same checkpoint as written by builds that knew no delta lines; those
#: builds refuse version 2, and refuse a version-1 file that has grown
#: deltas as unreadable, instead of listing it short.
MANIFEST_VERSION = 2
READABLE_MANIFEST_VERSIONS = (1, 2)
SNAPSHOT_SUFFIX = ".snap"

#: ``put``/``delete`` rewrite the checkpoint once the delta lines
#: outnumber ``max(COMPACT_MIN_DELTAS, live entries)``: the rewrite costs
#: the corpus, so it is paid at most once per corpus-many appends.
COMPACT_MIN_DELTAS = 64

#: Snapshot files are named by SHA-256 hex digests and nothing else; the
#: raw-hash addressing fallback refuses anything that does not look like
#: one, so keys can never traverse outside ``snapshots/``.
_CONTENT_HASH = re.compile(r"^[0-9a-f]{64}$")

_JSON = json.JSONDecoder()


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


class _Journal:
    """What one handle has read of one manifest file.

    The descriptor stays open for as long as the journal is in use: an
    open inode is never handed to another file, so "the path still names
    this ``(st_dev, st_ino)``" means *this* file even after a compaction
    replaced it and the file system recycled the number — and the unread
    tail is one ``os.pread`` away.  ``stamp`` is the ``os.stat`` identity
    at which ``entries`` was complete; ``offset`` is the end of the last
    committed (newline-terminated) line, where the next tail read and
    the next append start.
    """

    __slots__ = ("fd", "stamp", "offset", "entries", "deltas", "terminated")

    def __init__(self, fd: int) -> None:
        self.fd = fd  # owned: closed when the last user drops the journal
        status = os.fstat(fd)
        data = os.pread(fd, status.st_size, 0)
        try:
            text = data.decode("utf-8")
            payload, end = _JSON.raw_decode(text, len(text) - len(text.lstrip()))
            version = payload.get("version")
            entries = {
                key: StoreEntry.from_json(key, entry)
                for key, entry in payload.get("entries", {}).items()
            }
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            raise StoreError(f"unreadable store manifest: {error}") from error
        if version not in READABLE_MANIFEST_VERSIONS:
            raise StoreError(
                f"store manifest version {version!r} is not supported "
                f"(this build reads versions 1 and {MANIFEST_VERSION})"
            )
        self.entries: dict[str, StoreEntry] = entries
        #: Delta lines since the checkpoint.
        self.deltas = 0
        #: False while the checkpoint lacks its newline (older builds
        #: wrote none): the first append supplies it.
        self.terminated = False
        self.offset = end if data.isascii() else len(text[:end].encode("utf-8"))
        self.replay(data[self.offset:])
        self.stamp = _stamp(status)

    def __del__(self) -> None:
        os.close(self.fd)

    def replay(self, chunk: bytes) -> None:
        """Apply the complete delta lines of ``chunk``, which starts at ``offset``.

        A final line without its newline is not committed yet — its
        writer is mid-``write``, or died there — and stays unread.
        """
        committed = chunk.rfind(b"\n") + 1
        for line in chunk[:committed].split(b"\n"):
            if line.strip():
                try:
                    delta = json.loads(line)
                    key, payload = delta["key"], delta["entry"]
                    if not isinstance(key, str):
                        raise TypeError(f"key {key!r} is not a string")
                    self.apply(
                        key, None if payload is None else StoreEntry.from_json(key, payload)
                    )
                except (ValueError, KeyError, TypeError, AttributeError) as error:
                    raise StoreError(
                        f"unreadable store manifest: delta line {line[:80]!r}: {error!r}"
                    ) from error
        if committed:
            self.terminated = True
            self.offset += committed

    def apply(self, key: str, entry: Optional[StoreEntry]) -> None:
        """One delta: bind ``key`` to ``entry``, or drop it."""
        if entry is None:
            self.entries.pop(key, None)
        else:
            self.entries[key] = entry
        self.deltas += 1


def _stamp(status: os.stat_result) -> tuple:
    """Which file (the first two fields) in which state (the last two)."""
    return (status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns)


def _checkpoint(entries: dict[str, StoreEntry]) -> bytes:
    """The checkpoint line for ``entries``: sorted, compact, newline-terminated."""
    payload = {
        "version": MANIFEST_VERSION,
        "entries": {key: entries[key].to_json() for key in sorted(entries)},
    }
    # No ``indent``: it selects the pure-Python encoder, several times
    # slower (``repro store ls`` is the human-readable view).
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class CorpusStore:
    """A persistent, content-addressed corpus of document snapshots.

    Parameters
    ----------
    root:
        Directory to hold the manifest and snapshots; created (with
        parents) if missing.

    All methods are safe under concurrent use from threads and from
    processes.  A writer appends its one manifest line (or compacts)
    holding the in-process lock and, inside it, ``flock(LOCK_EX)`` on
    the manifest — never the reverse, and neither across anything that
    forks — so no writer's entry is lost and the last writer wins per
    *key*.  A reader takes neither lock on a warm lookup and only the
    in-process one to read a tail.  Where :mod:`fcntl` is missing the
    in-process lock alone applies: threads stay safe, processes racing
    on one store can lose each other's lines.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = os.fspath(root)
        self._snapshots = os.path.join(self.root, "snapshots")
        self._manifest_path = os.path.join(self.root, "manifest.json")
        self._lock = threading.Lock()
        # Replaced when the path names another file, extended in place
        # when the file grew, both under the lock.  A reader whose
        # ``os.stat`` equals ``stamp`` uses ``entries`` without the lock,
        # which is why ``stamp`` is always the last thing written.
        self._journal: Optional[_Journal] = None
        os.makedirs(self._snapshots, exist_ok=True)
        self._create_manifest()

    # -- manifest ----------------------------------------------------------

    def _create_manifest(self) -> None:
        """Install an empty checkpoint unless the store already has a manifest."""
        if not os.path.exists(self._manifest_path):
            _atomic_write(self._manifest_path, _checkpoint({}), overwrite=False)

    def _read_manifest(self) -> dict[str, StoreEntry]:
        """The manifest entries as of one ``os.stat`` of the file.

        The mapping is the handle's live one, which a concurrent writer
        extends in place: read it with single dictionary operations, or
        ``.copy()`` it before iterating.
        """
        try:
            status = os.stat(self._manifest_path)
            journal = self._journal
            if journal is not None and journal.stamp == _stamp(status):
                return journal.entries
            with self._lock:
                return self._refresh().entries
        except FileNotFoundError:
            return {}

    def _refresh(self) -> _Journal:
        """The journal, brought up to the file (call with the lock held).

        Same file and same size: nothing to read.  Same file, larger:
        only the tail.  Anything else — another file behind the path, or
        this one rewritten in place — is read from the start.
        """
        status = os.stat(self._manifest_path)
        stamp = _stamp(status)
        journal = self._journal
        if journal is not None and journal.stamp == stamp:
            return journal
        try:
            if (
                journal is not None
                and journal.stamp[:2] == stamp[:2]
                and status.st_size > journal.offset
            ):
                journal.replay(
                    os.pread(journal.fd, status.st_size - journal.offset, journal.offset)
                )
                journal.stamp = stamp
            else:
                journal = self._journal = _Journal(
                    os.open(self._manifest_path, os.O_RDONLY)
                )
        except FileNotFoundError:  # gone since the stat: the caller's case, as above
            raise
        except OSError as error:
            raise StoreError(f"unreadable store manifest: {error}") from error
        return journal

    def _open_for_append(self) -> int:
        """An ``O_APPEND`` descriptor on the manifest, exclusively ``flock``-ed.

        Closing it releases the lock.  It is opened per write rather
        than kept: a descriptor that outlives a ``fork`` would share its
        lock with the child.  The path is checked *after* the lock is
        granted, because the holder we waited for may have been a
        compaction that replaced the file.
        """
        while True:
            try:
                fd = os.open(self._manifest_path, os.O_WRONLY | os.O_APPEND)
            except FileNotFoundError:
                self._create_manifest()
                continue
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                if os.path.samestat(os.fstat(fd), os.stat(self._manifest_path)):
                    return fd
            except FileNotFoundError:
                pass
            except BaseException:
                os.close(fd)
                raise
            os.close(fd)

    @contextmanager
    def _writing(self) -> Iterator[tuple[int, _Journal]]:
        """Both locks, in order: yields the append descriptor and the current journal."""
        with self._lock:
            fd = self._open_for_append()
            try:
                yield fd, self._refresh()
            finally:
                os.close(fd)

    def _commit(self, key: str, entry: Optional[StoreEntry]) -> None:
        """Append one delta — ``entry`` bound to ``key``, or ``key`` dropped."""
        with self._writing() as (fd, journal):
            if entry is None and key not in journal.entries:
                raise StoreKeyError(f"store has no document {key!r}")
            if os.fstat(fd).st_size > journal.offset:
                # Bytes after the last newline, and no writer alive to
                # finish them (we hold the file lock): a dead writer's
                # torn line.
                os.ftruncate(fd, journal.offset)
            line = '%s{"key": %s, "entry": %s}\n' % (
                "" if journal.terminated else "\n",
                json.dumps(key),
                "null" if entry is None else json.dumps(entry.to_json(), sort_keys=True),
            )
            data = line.encode("ascii")
            if os.write(fd, data) != len(data):
                raise StoreError(
                    "short write to the store manifest (the torn line is "
                    "ignored by readers and removed by the next writer)"
                )
            journal.apply(key, entry)
            journal.terminated = True
            journal.offset += len(data)
            journal.stamp = _stamp(os.fstat(fd))
            if journal.deltas > max(COMPACT_MIN_DELTAS, len(journal.entries)):
                self._write_checkpoint(journal.entries)

    def _write_checkpoint(self, entries: dict[str, StoreEntry]) -> None:
        """Replace the manifest by one checkpoint of ``entries`` (both locks held)."""
        _atomic_write(self._manifest_path, _checkpoint(entries))
        # Another writer may append to the new file before we could stat
        # it, so what we know is not stamped onto it: the next lookup
        # reads the checkpoint back, once per corpus-many appends.
        self._journal = None

    def compact(self) -> None:
        """Fold the manifest's delta lines into a fresh checkpoint.

        ``put`` and ``delete`` do this on their own once the deltas
        outnumber ``max(COMPACT_MIN_DELTAS, live entries)``; calling it
        is never needed for correctness.  The result is the store's
        canonical form: one line, keys sorted, compact separators,
        independent of the order the entries arrived in.
        """
        with self._writing() as (_, journal):
            self._write_checkpoint(journal.entries)

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
        The cost is the document's: one snapshot file (if its content is
        new) and one manifest line, whatever the size of the corpus.
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
        if not os.path.exists(path):  # before the entry that points at it
            _atomic_write(path, blob)
        self._commit(entry.key, entry)
        document.snapshot_hash = content_hash
        return entry

    def delete(self, key: str) -> None:
        """Drop ``key`` from the manifest (snapshot bytes stay shared)."""
        self._commit(key, None)

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
        return [entry for _, entry in sorted(self._read_manifest().copy().items())]

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
        return sorted(self._read_manifest().copy())

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


def _atomic_write(path: str, data: bytes, overwrite: bool = True) -> None:
    """Write ``data`` to ``path`` atomically (same-directory temp + replace).

    With ``overwrite=False`` an existing ``path`` is left as it is (the
    temp file is hard-linked into place, which fails rather than
    replaces).
    """
    directory = os.path.dirname(path)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        if overwrite:
            os.replace(temp_path, path)
            return
        try:
            os.link(temp_path, path)
        except FileExistsError:
            pass
    except BaseException:
        _unlink_quietly(temp_path)
        raise
    _unlink_quietly(temp_path)


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
