"""Unit tests for the CorpusStore directory layout and manifest."""

import json
import os
import threading

import pytest

from repro.store import CorpusStore, StoreError, StoreKeyError, snapshot_hash
from repro.store.corpus import SNAPSHOT_SUFFIX
from repro.xmlmodel import parse_xml, serialize

XML = "<a><b/><b><c/></b></a>"


@pytest.fixture
def store(tmp_path):
    return CorpusStore(tmp_path / "corpus")


class TestPutGet:
    def test_put_then_get_round_trips(self, store):
        entry = store.put(XML, key="doc")
        assert entry.key == "doc"
        assert entry.nodes == 5
        assert entry.root_tag == "a"
        assert serialize(store.get("doc")) == serialize(parse_xml(XML))

    def test_default_key_is_content_hash(self, store):
        entry = store.put(XML)
        assert entry.key == entry.hash == snapshot_hash(store.read_bytes(entry.key))

    def test_identical_content_shares_one_snapshot_file(self, store, tmp_path):
        first = store.put(XML, key="one")
        second = store.put(parse_xml(XML), key="two")
        assert first.hash == second.hash
        snapshots = os.listdir(tmp_path / "corpus" / "snapshots")
        assert snapshots == [first.hash + SNAPSHOT_SUFFIX]

    def test_raw_hash_is_always_addressable(self, store):
        entry = store.put(XML, key="named")
        assert entry.hash in store
        assert store.get(entry.hash).size == 5

    def test_get_unknown_key_raises_store_key_error(self, store):
        with pytest.raises(StoreKeyError, match="nope"):
            store.get("nope")
        with pytest.raises(KeyError):  # also catchable as plain KeyError
            store.stat("nope")

    def test_traversal_shaped_keys_never_reach_the_filesystem(self, store, tmp_path):
        # A .snap file outside the store must not be addressable through it.
        outside = tmp_path / "evil.snap"
        outside.write_bytes(b"not yours")
        for key in ("../evil", "../../evil", "/etc/passwd", "a/../b"):
            with pytest.raises(StoreKeyError):
                store.stat(key)
            assert key not in store

    def test_put_accepts_documents_and_text_only(self, store):
        with pytest.raises(TypeError):
            store.put(42)

    def test_get_stamps_snapshot_hash(self, store):
        entry = store.put(XML, key="doc")
        assert store.get("doc").snapshot_hash == entry.hash

    def test_mmap_get_matches_eager_get(self, store):
        store.put(XML, key="doc")
        assert serialize(store.get("doc", mmap=True)) == serialize(store.get("doc"))


class TestManifest:
    def test_list_and_keys_are_sorted(self, store):
        store.put("<b/>", key="beta")
        store.put("<a/>", key="alpha")
        assert store.keys() == ["alpha", "beta"]
        assert [entry.key for entry in store.list()] == ["alpha", "beta"]
        assert len(store) == 2

    def test_reopening_sees_the_same_entries(self, store):
        store.put(XML, key="doc")
        reopened = CorpusStore(store.root)
        assert reopened.keys() == ["doc"]
        assert reopened.stat("doc").nodes == 5

    def test_manifest_cache_sees_external_writers(self, store):
        store.put(XML, key="doc")
        assert store.keys() == ["doc"]  # prime the mtime cache
        # A second handle on the same directory (another process, in
        # spirit) adds an entry; the first must observe it.
        CorpusStore(store.root).put("<x/>", key="other")
        assert store.keys() == ["doc", "other"]
        assert store.stat("other").root_tag == "x"

    def test_repeated_stats_do_not_reparse_the_manifest(self, store, count_json_decodes):
        store.put(XML, key="doc")
        store.stat("doc")  # prime
        with count_json_decodes() as decodes:
            for _ in range(10):
                store.stat("doc")
        assert decodes == []  # served from the stat-keyed cache

    def test_a_writer_never_rereads_what_it_wrote(self, store, count_json_decodes):
        store.put(XML, key="doc")  # reads the checkpoint, once
        with count_json_decodes() as decodes:
            for i in range(10):
                store.put(f"<a n='{i}'/>", key=f"doc{i}")
                assert store.stat(f"doc{i}").nodes == 2
            store.delete("doc3")
            assert len(store) == 10
        assert decodes == []

    def test_delete_removes_key_but_keeps_bytes(self, store):
        entry = store.put(XML, key="doc")
        store.delete("doc")
        assert "doc" not in store.keys()
        assert store.get(entry.hash).size == 5
        with pytest.raises(StoreKeyError):
            store.delete("doc")

    def test_reputting_a_key_points_it_at_new_content(self, store):
        store.put(XML, key="doc")
        store.put("<x/>", key="doc")
        assert store.stat("doc").root_tag == "x"
        assert len(store) == 1

    def test_corrupt_manifest_is_reported(self, store):
        with open(os.path.join(store.root, "manifest.json"), "w") as handle:
            handle.write("{ not json")
        with pytest.raises(StoreError, match="manifest"):
            store.keys()

    def test_unsupported_manifest_version_is_reported(self, store):
        with open(os.path.join(store.root, "manifest.json"), "w") as handle:
            json.dump({"version": 999, "entries": {}}, handle)
        with pytest.raises(StoreError, match="version"):
            store.keys()

    def test_indented_manifest_of_an_older_build_still_reads(self, store):
        store.put(XML, key="doc")
        store.put("<x/>", key="other")
        path = os.path.join(store.root, "manifest.json")
        payload = {
            "version": 1,
            "entries": {entry.key: entry.to_json() for entry in store.list()},
        }
        with open(path + ".tmp", "w") as handle:  # how builds before PR 16 wrote it
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(path + ".tmp", path)
        reopened = CorpusStore(store.root)
        assert reopened.keys() == ["doc", "other"]
        assert reopened.stat("doc") == store.stat("doc")
        assert reopened.get("other").root_tag == "x"
        # ... and it is a checkpoint like any other: appends go after it.
        reopened.put("<y/>", key="third")
        with open(path) as handle:
            assert handle.read().startswith(json.dumps(payload, indent=2, sort_keys=True) + "\n{")
        third = CorpusStore(store.root)
        assert third.keys() == store.keys() == ["doc", "other", "third"]
        assert [third.get(key).root_tag for key in third.keys()] == ["a", "x", "y"]

    def test_manifest_bytes_do_not_depend_on_put_order(self, tmp_path):
        def manifest_after(order):
            store = CorpusStore(tmp_path / "-".join(order))
            for key in order:
                store.put(f"<{key}/>", key=key)
            store.compact()
            with open(os.path.join(store.root, "manifest.json"), "rb") as handle:
                return handle.read()

        first = manifest_after(["b", "a", "c"])
        assert first == manifest_after(["c", "b", "a"])
        assert first.endswith(b"}\n") and first.count(b"\n") == 1  # no deltas
        payload = json.loads(first)
        assert list(payload) == sorted(payload)
        assert payload["version"] == 2
        assert list(payload["entries"]) == ["a", "b", "c"]
        assert all(list(entry) == sorted(entry) for entry in payload["entries"].values())
        assert first == json.dumps(payload, sort_keys=True).encode() + b"\n"

    def test_missing_snapshot_file_is_reported(self, store):
        entry = store.put(XML, key="doc")
        os.unlink(
            os.path.join(store.root, "snapshots", entry.hash + SNAPSHOT_SUFFIX)
        )
        with pytest.raises(StoreError, match="missing"):
            store.get("doc")

    def test_corrupt_snapshot_bytes_raise_store_error(self, store):
        entry = store.put(XML, key="doc")
        path = os.path.join(store.root, "snapshots", entry.hash + SNAPSHOT_SUFFIX)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF  # flip a bit inside the string table
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(StoreError, match="content-hash"):
            store.get("doc")
        # The mmap path skips the digest but still fails typed, not raw.
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            store.get("doc", mmap=True)

    def test_no_temp_files_left_behind(self, store, tmp_path):
        for i in range(5):
            store.put(f"<a n='{i}'/>", key=f"doc{i}")
        leftovers = [
            name
            for base, _, names in os.walk(tmp_path / "corpus")
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestConcurrency:
    def test_concurrent_puts_and_gets_are_consistent(self, store):
        errors = []

        def writer(i):
            try:
                for j in range(5):
                    store.put(f"<a n='{i}-{j}'/>", key=f"doc-{i}-{j}")
            except Exception as error:  # pragma: no cover - failure capture
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(store) == 20
        for key in store.keys():
            assert store.get(key).size >= 2
