"""True-positive / true-negative fixtures for every shipped checker."""

import textwrap

from repro.analysis import analyze_source, analyze_sources, default_config


def rules_fired(text, path, **kwargs):
    return [f.rule for f in analyze_source(text, path=path, **kwargs)]


ENGINE = "src/repro/engine/engine.py"
SERVER = "src/repro/serving/server.py"
WORKER = "src/repro/serving/worker.py"


class TestLockDiscipline:
    def test_unlocked_shared_write_fires(self):
        text = textwrap.dedent(
            """
            class XPathEngine:
                def detach(self):
                    self._store = None
            """
        )
        [finding] = analyze_source(text, path=ENGINE)
        assert finding.rule == "lock-discipline"
        assert "self._store" in finding.message
        assert "_store_lock" in finding.message

    def test_locked_shared_write_is_clean(self):
        text = textwrap.dedent(
            """
            class XPathEngine:
                def detach(self):
                    with self._store_lock:
                        self._store = None
            """
        )
        assert rules_fired(text, ENGINE) == []

    def test_construction_is_exempt(self):
        text = textwrap.dedent(
            """
            class XPathEngine:
                def __init__(self):
                    self._store = None
            """
        )
        assert rules_fired(text, ENGINE) == []

    def test_wrong_lock_still_fires(self):
        text = textwrap.dedent(
            """
            class XPathEngine:
                def detach(self):
                    with self._plan_lock:
                        self._store = None
            """
        )
        assert rules_fired(text, ENGINE) == ["lock-discipline"]

    def test_out_of_scope_path_is_ignored(self):
        text = textwrap.dedent(
            """
            class XPathEngine:
                def detach(self):
                    self._store = None
            """
        )
        assert rules_fired(text, "src/repro/xmlmodel/engineish.py") == []

    def test_hierarchy_inversion_fires(self):
        text = textwrap.dedent(
            """
            class XPathEngine:
                def wrong(self):
                    with self._store_lock:
                        with self._lock:
                            pass
            """
        )
        [finding] = analyze_source(text, path=ENGINE)
        assert finding.rule == "lock-discipline"
        assert "acquires '_lock' while holding '_store_lock'" in finding.message

    def test_hierarchy_inward_nesting_is_clean(self):
        text = textwrap.dedent(
            """
            class XPathEngine:
                def right(self):
                    with self._lock:
                        with self._store_lock:
                            pass
            """
        )
        assert rules_fired(text, ENGINE) == []

    def test_single_statement_multi_item_order_is_checked(self):
        bad = "def f(self):\n    with self._store_lock, self._lock:\n        pass\n"
        good = "def f(self):\n    with self._lock, self._store_lock:\n        pass\n"
        assert rules_fired(bad, ENGINE) == ["lock-discipline"]
        assert rules_fired(good, ENGINE) == []

    def test_locks_are_not_held_across_a_def_boundary(self):
        text = textwrap.dedent(
            """
            class XPathEngine:
                def outer(self):
                    with self._store_lock:
                        def inner(self):
                            with self._lock:
                                pass
            """
        )
        assert rules_fired(text, ENGINE) == []

    def test_handle_lock_sits_between_registry_and_plan_locks(self):
        good = (
            "def f(self, handle):\n"
            "    with self._lock:\n"
            "        with handle._handle_lock:\n"
            "            with self._plan_lock:\n"
            "                pass\n"
        )
        registry_inside = (
            "def f(self, handle):\n"
            "    with handle._handle_lock:\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        handle_inside_plan = (
            "def f(self, handle):\n"
            "    with self._plan_lock:\n"
            "        with handle._handle_lock:\n"
            "            pass\n"
        )
        assert rules_fired(good, ENGINE) == []
        assert rules_fired(registry_inside, ENGINE) == ["lock-discipline"]
        assert rules_fired(handle_inside_plan, ENGINE) == ["lock-discipline"]


WIRE_FIXTURE = textwrap.dedent(
    """
    MSG_A = 1
    MSG_B = 2

    def encode_a(seq):
        return bytes([MSG_A, seq])
    """
)


def wire_config(**exempt):
    return default_config().with_overrides(
        wire_dispatch_exempt={
            WORKER.removeprefix("src/"): frozenset(exempt.get("worker", ())),
        }
    )


class TestWireExhaustive:
    def run(self, worker_text, config):
        return analyze_sources(
            {"src/repro/serving/wire.py": WIRE_FIXTURE, WORKER: worker_text},
            rules=["wire-exhaustive"],
            config=config,
        )

    def test_all_constants_touched_is_clean(self):
        worker = textwrap.dedent(
            """
            from repro.serving import wire

            def dispatch(message):
                if message.msg_type == wire.MSG_A:
                    return
                if message.msg_type == wire.MSG_B:
                    return
            """
        )
        assert self.run(worker, wire_config()) == []

    def test_missing_handler_fires(self):
        worker = textwrap.dedent(
            """
            from repro.serving import wire

            def dispatch(message):
                if message.msg_type == wire.MSG_A:
                    return
            """
        )
        [finding] = self.run(worker, wire_config())
        assert finding.rule == "wire-exhaustive"
        assert "'MSG_B'" in finding.message
        assert finding.path == WORKER

    def test_producing_via_encoder_counts_as_touching(self):
        worker = textwrap.dedent(
            """
            from repro.serving import wire

            def dispatch(message, connection):
                if message.msg_type == wire.MSG_B:
                    connection.send_bytes(wire.encode_a(message.seq))
            """
        )
        assert self.run(worker, wire_config()) == []

    def test_spec_exemption_covers_a_constant(self):
        worker = textwrap.dedent(
            """
            from repro.serving import wire

            def dispatch(message):
                if message.msg_type == wire.MSG_A:
                    return
            """
        )
        assert self.run(worker, wire_config(worker=("MSG_B",))) == []

    def test_exempting_an_unknown_constant_is_a_finding(self):
        worker = "from repro.serving import wire\nMSG_A\nMSG_B\n"
        [finding] = self.run(worker, wire_config(worker=("MSG_GHOST",)))
        assert "MSG_GHOST" in finding.message
        assert finding.path == "src/repro/serving/wire.py"


class TestAsyncBlocking:
    def test_blocking_call_in_async_body_fires(self):
        text = textwrap.dedent(
            """
            import time

            async def handle(reader, writer):
                time.sleep(0.1)
            """
        )
        [finding] = analyze_source(text, path=SERVER)
        assert finding.rule == "async-blocking"
        assert "time.sleep" in finding.message

    def test_awaited_sleep_is_clean(self):
        text = textwrap.dedent(
            """
            import asyncio

            async def handle(reader, writer):
                await asyncio.sleep(0.1)
            """
        )
        assert rules_fired(text, SERVER) == []

    def test_blocking_method_on_any_receiver_fires(self):
        text = textwrap.dedent(
            """
            async def handle(pool, batch):
                return pool.evaluate_batch(batch)
            """
        )
        [finding] = analyze_source(text, path=SERVER)
        assert "evaluate_batch" in finding.message

    def test_run_in_executor_arguments_are_sanctioned(self):
        text = textwrap.dedent(
            """
            async def handle(loop, pool, batch):
                return await loop.run_in_executor(
                    None, lambda: pool.evaluate_batch(batch)
                )
            """
        )
        assert rules_fired(text, SERVER) == []

    def test_nested_sync_def_runs_on_the_executor(self):
        text = textwrap.dedent(
            """
            async def handle(pool, batch):
                def work():
                    return pool.evaluate_batch(batch)
                return work
            """
        )
        assert rules_fired(text, SERVER) == []

    def test_sync_functions_are_out_of_scope(self):
        text = "import time\n\ndef handle():\n    time.sleep(0.1)\n"
        assert rules_fired(text, SERVER) == []

    def test_non_network_modules_are_out_of_scope(self):
        text = "import time\n\nasync def handle():\n    time.sleep(0.1)\n"
        assert rules_fired(text, WORKER) == []


class TestImmutability:
    def test_write_outside_hydration_path_fires(self):
        [finding] = analyze_source(
            "index.subtree_end = []\n", path="src/repro/evaluation/hot.py"
        )
        assert finding.rule == "immutability"
        assert "'.subtree_end'" in finding.message
        assert "repro/xmlmodel/index.py" in finding.message

    def test_hydration_module_may_write(self):
        assert rules_fired(
            "index.subtree_end = []\n", "src/repro/store/codec.py"
        ) == []

    def test_constructor_writes_are_construction(self):
        text = textwrap.dedent(
            """
            class Interner:
                def __init__(self):
                    self._ids = {}
            """
        )
        assert rules_fired(text, "src/repro/store/other.py") == []

    def test_non_constructor_method_write_fires(self):
        text = textwrap.dedent(
            """
            class Interner:
                def reset(self):
                    self._ids = {}
            """
        )
        assert rules_fired(text, "src/repro/store/other.py") == ["immutability"]

    def test_deletion_counts_as_a_write(self):
        [finding] = analyze_source(
            "del idset._bits\n", path="src/repro/evaluation/hot.py"
        )
        assert finding.message.startswith("deletes frozen attribute")

    def test_unregistered_attributes_are_free(self):
        assert rules_fired(
            "index.scratch = []\n", "src/repro/evaluation/hot.py"
        ) == []


class TestExceptionHygiene:
    def test_bare_except_fires_anywhere(self):
        text = "try:\n    work()\nexcept:\n    pass\n"
        [finding] = analyze_source(text, path="src/repro/planner/x.py")
        assert finding.rule == "exception-hygiene"
        assert "bare" in finding.message

    def test_broad_swallow_fires(self):
        text = "try:\n    work()\nexcept Exception:\n    pass\n"
        assert rules_fired(text, "src/repro/planner/x.py") == [
            "exception-hygiene"
        ]

    def test_broad_reraise_is_clean(self):
        text = (
            "try:\n    work()\nexcept Exception:\n    cleanup()\n    raise\n"
        )
        assert rules_fired(text, "src/repro/planner/x.py") == []

    def test_broad_logging_is_clean(self):
        text = (
            "try:\n    work()\n"
            "except Exception:\n    logger.exception('work failed')\n"
        )
        assert rules_fired(text, "src/repro/planner/x.py") == []

    def test_using_the_bound_error_is_clean_outside_loops(self):
        text = (
            "try:\n    work()\n"
            "except Exception as error:\n    reply = wrap(error)\n"
        )
        assert rules_fired(text, "src/repro/planner/x.py") == []

    def test_typed_excepts_are_untouched(self):
        text = "try:\n    work()\nexcept (OSError, ValueError):\n    pass\n"
        assert rules_fired(text, "src/repro/planner/x.py") == []

    def test_serving_loop_must_log_or_raise(self):
        text = textwrap.dedent(
            """
            def worker_main(connection):
                while True:
                    try:
                        step(connection)
                    except Exception as error:
                        connection.send_bytes(encode(error))
            """
        )
        [finding] = analyze_source(text, path=WORKER)
        assert finding.rule == "exception-hygiene"
        assert "worker_main" in finding.message

    def test_serving_loop_logging_is_clean(self):
        text = textwrap.dedent(
            """
            def worker_main(connection):
                while True:
                    try:
                        step(connection)
                    except Exception:
                        logger.exception("worker step failed")
            """
        )
        assert rules_fired(text, WORKER) == []

    def test_same_code_outside_the_loop_function_uses_the_lax_tier(self):
        text = textwrap.dedent(
            """
            def helper(connection):
                try:
                    step(connection)
                except Exception as error:
                    connection.send_bytes(encode(error))
            """
        )
        assert rules_fired(text, WORKER) == []


def api_config(**overrides):
    base = dict(
        public_modules=("repro/__init__.py", "repro/sub/__init__.py"),
        docs_api_tables=(),
    )
    base.update(overrides)
    return default_config().with_overrides(**base)


class TestApiSurface:
    def run(self, top, sub, config=None):
        return analyze_sources(
            {
                "src/repro/__init__.py": top,
                "src/repro/sub/__init__.py": sub,
            },
            rules=["api-surface"],
            config=config or api_config(),
        )

    GOOD_TOP = (
        "from repro.sub import thing\n\n__all__ = [\"thing\"]\n"
    )
    GOOD_SUB = "def thing():\n    pass\n\n__all__ = [\"thing\"]\n"

    def test_consistent_surface_is_clean(self):
        assert self.run(self.GOOD_TOP, self.GOOD_SUB) == []

    def test_stale_all_entry_fires(self):
        sub = "def thing():\n    pass\n\n__all__ = [\"thing\", \"ghost\"]\n"
        [finding] = self.run(self.GOOD_TOP, sub)
        assert finding.rule == "api-surface"
        assert "'ghost'" in finding.message

    def test_missing_all_declaration_fires(self):
        sub = "def thing():\n    pass\n"
        [finding] = self.run(self.GOOD_TOP, sub)
        assert "declares no __all__" in finding.message

    def test_import_without_export_fires(self):
        top = "from repro.sub import thing\n\n__all__ = []\n"
        [finding] = self.run(top, self.GOOD_SUB)
        assert "does not list it in __all__" in finding.message

    def test_reexport_missing_from_subpackage_all_fires(self):
        sub = "def thing():\n    pass\n\n__all__ = []\n"
        [finding] = self.run(self.GOOD_TOP, sub)
        assert "does not list in its own __all__" in finding.message

    def test_docs_table_naming_a_dead_api_fires(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "engine.md").write_text(
            "| old | new |\n| --- | --- |\n"
            "| `legacy(...)` | `repro.vanished` |\n",
            encoding="utf-8",
        )
        config = api_config(docs_api_tables=("docs/engine.md",))
        findings = self.run(self.GOOD_TOP, self.GOOD_SUB, config=config)
        assert sorted(f.message for f in findings) == [
            "docs table references 'legacy', which no public __all__ exports",
            "docs table references 'vanished', which no public __all__ "
            "exports",
        ]

    def test_docs_table_naming_live_api_is_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "engine.md").write_text(
            "| old | new |\n| --- | --- |\n"
            "| `thing(...)` | `repro.thing` |\n",
            encoding="utf-8",
        )
        config = api_config(docs_api_tables=("docs/engine.md",))
        assert self.run(self.GOOD_TOP, self.GOOD_SUB, config=config) == []
