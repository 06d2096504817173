"""The manifest journal: many writers, torn lines, and ``journal ≡ a dict``.

The multi-process tests use ``spawn`` (a fresh interpreter per writer,
nothing inherited), so their targets are module-level functions.
"""

import json
import multiprocessing
import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.store import CorpusStore, StoreError, StoreKeyError
from repro.store import corpus as corpus_module

TIMEOUT = 120  # generous: four interpreters start on a two-core box


def manifest(store):
    return os.path.join(store.root, "manifest.json")


def delta_lines(store):
    with open(manifest(store), "rb") as handle:
        return handle.read().split(b"\n")[1:-1]


# -- processes -----------------------------------------------------------------


def _put_keys(root, writer, count):
    store = CorpusStore(root)
    for i in range(count):
        store.put(f"<w n='{writer}-{i}'/>", key=f"k-{writer}-{i:03d}")


def _put_keys_and_compact(root, writer, count):
    store = CorpusStore(root)
    for i in range(count):
        store.put(f"<w n='{writer}-{i}'/>", key=f"k-{writer}-{i:03d}")
        if i % 7 == 3:
            store.compact()


def _watch_keys(root, stop_path, results):
    """List the store until told to stop; report how the listings evolved."""
    store = CorpusStore(root)
    seen, listings, problem = set(), 0, None
    try:
        while not os.path.exists(stop_path):
            keys = set(store.keys())
            if not seen <= keys:
                problem = f"keys disappeared: {sorted(seen - keys)[:5]}"
                break
            seen = keys
            listings += 1
    except Exception as error:  # reported to the parent, which fails the test
        problem = repr(error)
    results.put((listings, len(seen), problem))


def _run(processes):
    for process in processes:
        process.start()
    for process in processes:
        process.join(TIMEOUT)
    assert [process.is_alive() for process in processes] == [False] * len(processes)
    assert [process.exitcode for process in processes] == [0] * len(processes)


class TestManyProcesses:
    def test_four_writers_and_a_reader_lose_nothing(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        root, stop_path = str(tmp_path / "corpus"), str(tmp_path / "stop")
        CorpusStore(root)
        results = context.Queue()
        reader = context.Process(target=_watch_keys, args=(root, stop_path, results))
        reader.start()
        try:
            _run([context.Process(target=_put_keys, args=(root, w, 60)) for w in range(4)])
        finally:
            open(stop_path, "w").close()
        listings, last_count, problem = results.get(timeout=TIMEOUT)
        reader.join(TIMEOUT)
        assert not reader.is_alive()
        assert problem is None
        assert listings > 0 and last_count <= 240
        expected = sorted(f"k-{w}-{i:03d}" for w in range(4) for i in range(60))
        assert CorpusStore(root).keys() == expected

    def test_compaction_beside_two_appenders_loses_nothing(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        root = str(tmp_path / "corpus")
        _run(
            [context.Process(target=_put_keys_and_compact, args=(root, 0, 40))]
            + [context.Process(target=_put_keys, args=(root, w, 40)) for w in (1, 2)]
        )
        store = CorpusStore(root)
        assert store.keys() == sorted(f"k-{w}-{i:03d}" for w in range(3) for i in range(40))
        assert all(store.get(key).root_tag == "w" for key in store.keys()[::17])


# -- torn and malformed lines --------------------------------------------------------


@pytest.fixture
def store(tmp_path):
    return CorpusStore(tmp_path / "corpus")


class TestTornLines:
    def test_a_line_torn_by_a_dead_writer_is_ignored_then_removed(self, store):
        store.put("<a/>", key="a")
        store.put("<b/>", key="b")
        with open(manifest(store), "rb") as handle:
            whole = handle.read()
        with open(manifest(store), "wb") as handle:
            handle.write(whole[:-25])  # the middle of b's line
        reopened = CorpusStore(store.root)
        assert reopened.keys() == ["a"]
        assert reopened.keys() == ["a"]  # and again, from the cache
        reopened.put("<c/>", key="c")
        assert reopened.keys() == CorpusStore(store.root).keys() == ["a", "c"]
        assert all(line.endswith(b"}") for line in delta_lines(store))

    def test_a_line_still_being_written_is_left_for_the_next_read(self, store):
        store.put("<a/>", key="a")
        reader = CorpusStore(store.root)
        assert reader.keys() == ["a"]
        line = b'{"key": "late", "entry": ' + json.dumps(store.stat("a").to_json()).encode() + b"}\n"
        with open(manifest(store), "ab") as handle:
            handle.write(line[:30])
            handle.flush()
            assert reader.keys() == ["a"]
            handle.write(line[30:])
        assert reader.keys() == ["a", "late"]
        assert reader.stat("late").hash == store.stat("a").hash

    @pytest.mark.parametrize(
        "garbage",
        [b"garbage\n", b"[1, 2]\n", b'{"key": "k"}\n', b'{"key": 5, "entry": null}\n',
         b'{"key": "k", "entry": {"hash": "x"}}\n', b'{"key": "k", "entry": 7}\n', b"\xff\xfe\n"],
    )
    def test_a_malformed_delta_line_is_a_store_error(self, store, garbage):
        store.put("<a/>", key="a")
        assert store.keys() == ["a"]
        with open(manifest(store), "ab") as handle:
            handle.write(garbage)
        for handle in (store, CorpusStore(store.root)):  # tail read, full read
            with pytest.raises(StoreError, match="unreadable store manifest"):
                handle.keys()

    def test_blank_lines_between_deltas_are_skipped(self, store):
        store.put("<a/>", key="a")
        with open(manifest(store), "ab") as handle:
            handle.write(b"\n  \n")
        store.put("<b/>", key="b")
        assert store.keys() == CorpusStore(store.root).keys() == ["a", "b"]


# -- the cost of a put ---------------------------------------------------------------


class TestCost:
    def test_a_put_appends_one_short_line(self, store):
        sizes = []
        for i in range(50):
            store.put(f"<a n='{i}'/>", key=f"doc{i:02d}")
            sizes.append(os.path.getsize(manifest(store)))
        growth = {b - a for a, b in zip(sizes, sizes[1:])}
        assert len(growth) == 1 and growth.pop() < 200  # the same few bytes at 1 and at 49 entries

    def test_compactions_are_logarithmic_in_the_number_of_puts(self, tmp_path, monkeypatch):
        def compactions_during(keys):
            store = CorpusStore(tmp_path / f"corpus{len(set(keys))}")
            compactions = []
            original = corpus_module._checkpoint
            monkeypatch.setattr(
                corpus_module, "_checkpoint",
                lambda entries: compactions.append(len(entries)) or original(entries),
            )
            document = store.get(store.put("<a/>", key="seed").hash)
            for key in keys:
                store.put(document, key=key)
            monkeypatch.setattr(corpus_module, "_checkpoint", original)
            assert len(store) == len(set(keys)) + 1
            assert len(delta_lines(store)) <= max(corpus_module.COMPACT_MIN_DELTAS, len(store))
            return compactions

        # Every key new: the deltas never outnumber the entries they made.
        assert compactions_during([f"k{i}" for i in range(1000)]) == []
        # 1 000 re-puts of 500 keys: one rewrite, paid for by 500 appends.
        assert len(compactions_during([f"k{i % 500}" for i in range(1000)])) == 1
        # ... and of 8 keys: a rewrite of at most 9 entries every 65 appends.
        small = compactions_during([f"k{i % 8}" for i in range(1000)])
        assert len(small) == 1000 // (corpus_module.COMPACT_MIN_DELTAS + 1) and max(small) <= 9

    def test_a_cold_open_parses_one_checkpoint_and_the_lines_after_it(
        self, store, count_json_decodes
    ):
        document = store.get(store.put("<a/>", key="seed").hash)
        for i in range(150):
            store.put(document, key=f"k{i % 50}")
        pending = len(delta_lines(store))
        assert 0 < pending <= 64
        with count_json_decodes() as decodes:
            assert CorpusStore(store.root).stat("k7").nodes == 2
        assert len(decodes) == 1 + pending


# -- journal ≡ a dict ----------------------------------------------------------------

KEYS = st.sampled_from(["a", "b", "c", "d", "é", "k 5"])
TAGS = st.sampled_from(["x", "y", "z"])


class JournalMachine(RuleBasedStateMachine):
    """Two handles on one store against a plain dict of ``key → root tag``."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.first = CorpusStore(os.path.join(self.directory.name, "corpus"))
        self.second = CorpusStore(self.first.root)
        self.model = {}

    def teardown(self):
        self.directory.cleanup()

    @rule(key=KEYS, tag=TAGS, second=st.booleans())
    def put(self, key, tag, second):
        entry = (self.second if second else self.first).put(f"<{tag}/>", key=key)
        assert (entry.key, entry.root_tag) == (key, tag)
        self.model[key] = tag

    @rule(key=KEYS, second=st.booleans())
    def delete(self, key, second):
        handle = self.second if second else self.first
        if key in self.model:
            handle.delete(key)
            del self.model[key]
        else:
            with pytest.raises(StoreKeyError):
                handle.delete(key)

    @rule(second=st.booleans())
    def compact(self, second):
        (self.second if second else self.first).compact()
        assert delta_lines(self.first) == []

    @rule()
    def reopen(self):
        self.second = CorpusStore(self.first.root)

    @precondition(lambda self: self.model)
    @rule()
    def an_older_build_rewrites_the_manifest(self):
        payload = {
            "version": 1,
            "entries": {entry.key: entry.to_json() for entry in self.first.list()},
        }
        path = manifest(self.first)
        with open(path + ".old", "w") as handle:
            json.dump(payload, handle, sort_keys=True)  # no trailing newline
        os.replace(path + ".old", path)

    @invariant()
    def both_handles_equal_the_model(self):
        for handle in (self.first, self.second):
            assert handle.keys() == sorted(self.model)
            assert {e.key: e.root_tag for e in handle.list()} == self.model
            assert len(handle) == len(self.model)
            for key, tag in self.model.items():
                assert key in handle and handle.stat(key).root_tag == tag


TestJournalIsADict = JournalMachine.TestCase
TestJournalIsADict.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


def test_a_warm_lookup_is_one_os_stat_and_no_lock(store, monkeypatch):
    class Forbidden:
        def __enter__(self):
            raise AssertionError("a warm lookup took the store lock")

        def __exit__(self, *exc):
            return False

    store.put("<a/>", key="a")
    store.stat("a")
    stats = []
    original = os.stat
    monkeypatch.setattr(os, "stat", lambda *a, **k: stats.append(a) or original(*a, **k))
    monkeypatch.setattr(store, "_lock", Forbidden())
    assert store.stat("a").nodes == 2
    assert len(stats) == 1
    assert "a" in store and len(stats) == 2
