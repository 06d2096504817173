"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text("<site><a id='1'><b/></a><a id='2'/></site>", encoding="utf-8")
    return str(path)


class TestEvalCommand:
    def test_node_set_output(self, xml_file, capsys):
        assert main(["eval", "//a[child::b]", xml_file]) == 0
        out = capsys.readouterr().out
        assert "node-set of 1 node(s)" in out
        assert "element(a)" in out

    @pytest.mark.parametrize("engine", ["cvt", "naive", "core", "singleton"])
    def test_all_engines(self, xml_file, engine, capsys):
        assert main(["eval", "/descendant::b", xml_file, "--engine", engine]) == 0
        assert "node-set of 1 node(s)" in capsys.readouterr().out

    def test_scalar_output(self, xml_file, capsys):
        assert main(["eval", "count(//a)", xml_file]) == 0
        assert "2.0" in capsys.readouterr().out

    def test_limit_truncates_output(self, xml_file, capsys):
        assert main(["eval", "//*", xml_file, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "… and" in out

    def test_missing_file(self, capsys):
        assert main(["eval", "//a", "/nonexistent/file.xml"]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error_returns_one(self, xml_file, capsys):
        assert main(["eval", "//a[", xml_file]) == 1
        assert "error" in capsys.readouterr().err

    def test_fragment_violation_reported(self, xml_file, capsys):
        assert main(["eval", "count(//a)", xml_file, "--engine", "core"]) == 1
        assert "Core XPath" in capsys.readouterr().err


class TestQueryCommand:
    def test_metadata_and_node_set_output(self, xml_file, capsys):
        assert main(["query", "//a[child::b]", xml_file]) == 0
        out = capsys.readouterr().out
        assert "engine   : auto (core selected)" in out
        assert "fragment : positive Core XPath" in out
        assert "plan     :" in out
        assert "node-set of 1 node(s)" in out

    def test_scalar_output(self, xml_file, capsys):
        assert main(["query", "count(//a)", xml_file]) == 0
        out = capsys.readouterr().out
        assert "engine   : auto (cvt selected)" in out
        assert "2.0" in out

    def test_explicit_engine(self, xml_file, capsys):
        assert main(["query", "//a", xml_file, "--engine", "cvt"]) == 0
        assert "engine   : cvt" in capsys.readouterr().out

    def test_stats_prints_engine_counters(self, xml_file, capsys):
        assert main(["query", "//a[child::b]", xml_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine stats:" in out
        assert "plan cache          :" in out
        assert "documents           :" in out
        assert "dispatch counts     : core=" in out
        assert "hit rate" in out

    def test_missing_file(self, capsys):
        assert main(["query", "//a", "/nonexistent/file.xml"]) == 2
        assert "error" in capsys.readouterr().err


class TestClassifyCommand:
    def test_basic_classification(self, capsys):
        assert main(["classify", "//a[child::b]"]) == 0
        out = capsys.readouterr().out
        assert "positive Core XPath" in out
        assert "LOGCFL-complete" in out

    def test_verbose_lists_violations(self, capsys):
        assert main(["classify", "//a[count(child::b) > 1]", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "excluded from:" in out
        assert "Core XPath" in out


class TestPlanCommand:
    def test_plan_explains_engine_choice(self, capsys):
        assert main(["plan", "//a[not(child::b)]"]) == 0
        out = capsys.readouterr().out
        assert "selected engine     : core" in out
        assert "fallback chain      : cvt" in out

    def test_stats_prints_plan_cache_counters(self, capsys):
        query = "//a[child::stats-probe]"
        assert main(["plan", query, "--stats"]) == 0
        first = capsys.readouterr().out
        assert "plan cache          :" in first
        assert "hit rate" in first
        # The second run of the same query must be served from the cache.
        from repro.planner import default_plan_cache

        hits_before = default_plan_cache().stats().hits
        assert main(["plan", query, "--stats"]) == 0
        assert default_plan_cache().stats().hits == hits_before + 1

    def test_stats_includes_engine_dispatch_counts(self, capsys):
        assert main(["plan", "//a", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "dispatch counts     :" in out
        assert "queries             :" in out


class TestFigure1Command:
    def test_prints_lattice(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "P-complete" in out and "PF -> positive Core XPath" in out


class TestStoreCommands:
    # `store query` runs on a command-local engine (cli.py), so no
    # process-default engine cleanup is needed here.

    @pytest.fixture
    def store_dir(self, tmp_path):
        return str(tmp_path / "corpus")

    def test_build_ls_query_round_trip(self, xml_file, store_dir, capsys):
        assert main(["store", "build", xml_file, "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "stored   :" in out and "5 nodes" in out

        assert main(["store", "ls", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "doc" in out and "site" in out

        assert main(
            ["store", "query", "//a[child::b]", "doc", "--store", store_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "snapshot-hydrated" in out
        assert "node-set of 1 node(s)" in out

    def test_query_stats_show_store_counters(self, xml_file, store_dir, capsys):
        assert main(["store", "build", xml_file, "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(
            ["store", "query", "count(//a)", "doc", "--store", store_dir, "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "2.0" in out
        assert "store               : 1 hit(s), 0 miss(es), 1 snapshot load(s)" in out

    def test_query_mmap(self, xml_file, store_dir, capsys):
        assert main(["store", "build", xml_file, "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(
            ["store", "query", "//b", "doc", "--store", store_dir, "--mmap"]
        ) == 0
        assert "node-set of 1 node(s)" in capsys.readouterr().out

    def test_build_custom_key_and_unknown_key(self, xml_file, store_dir, capsys):
        assert main(
            ["store", "build", xml_file, "--store", store_dir, "--key", "mine"]
        ) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--store", store_dir]) == 0
        assert "mine" in capsys.readouterr().out
        assert main(["store", "query", "//a", "ghost", "--store", store_dir]) == 1
        assert "ghost" in capsys.readouterr().err

    def test_key_with_multiple_documents_rejected(self, xml_file, store_dir, capsys):
        assert main(
            ["store", "build", xml_file, xml_file, "--store", store_dir, "--key", "k"]
        ) == 2
        assert "--key" in capsys.readouterr().err

    def test_colliding_basenames_rejected(self, tmp_path, store_dir, capsys):
        first = tmp_path / "x" / "doc.xml"
        second = tmp_path / "y" / "doc.xml"
        for path, body in ((first, "<a/>"), (second, "<b/>")):
            path.parent.mkdir(exist_ok=True)
            path.write_text(body, encoding="utf-8")
        assert main(
            ["store", "build", str(first), str(second), "--store", store_dir]
        ) == 2
        assert "colliding" in capsys.readouterr().err

    def test_empty_store_ls(self, store_dir, capsys):
        assert main(["store", "ls", "--store", store_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_ls_is_sorted_with_byte_sizes_and_totals(self, tmp_path, store_dir, capsys):
        for name in ("zeta", "alpha", "mid"):
            path = tmp_path / f"{name}.xml"
            path.write_text(f"<{name}><x/></{name}>", encoding="utf-8")
            assert main(["store", "build", str(path), "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--store", store_dir]) == 0
        first = capsys.readouterr().out
        assert main(["store", "ls", "--store", store_dir]) == 0
        assert capsys.readouterr().out == first  # deterministic, run to run
        lines = first.splitlines()
        keys = [line.split()[0] for line in lines[1:-1]]
        assert keys == sorted(keys) == ["alpha", "mid", "zeta"]
        from repro.store import CorpusStore

        for entry in CorpusStore(store_dir).list():
            assert f"{entry.bytes:>10}" in first  # snapshot byte sizes shown
        assert "total    : 3 key(s), 3 snapshot file(s)," in lines[-1]

    def test_ls_workers_previews_shard_layout(self, xml_file, store_dir, capsys):
        assert main(["store", "build", xml_file, "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--store", store_dir, "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "shard" in out.splitlines()[0]
        from repro.store import CorpusStore, shard_of

        [entry] = CorpusStore(store_dir).list()
        expected = shard_of(entry.hash, 4)
        assert out.splitlines()[1].rstrip().endswith(str(expected))

    def test_store_query_workers(self, xml_file, store_dir, capsys):
        assert main(["store", "build", xml_file, "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(
            ["store", "query", "//a[child::b]", "doc", "--store", store_dir,
             "--workers", "2", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded (2 worker process(es)" in out
        assert "node-set of 1 node(s)" in out
        assert "shard    : worker" in out
        assert "serving             : 2 worker process(es)" in out

    def test_store_query_workers_rejects_explicit_engine(
        self, xml_file, store_dir, capsys
    ):
        assert main(["store", "build", xml_file, "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(
            ["store", "query", "//a", "doc", "--store", store_dir,
             "--workers", "2", "--engine", "cvt"]
        ) == 2
        assert "--workers" in capsys.readouterr().err


class TestQueryWorkers:
    def test_query_through_worker_pool(self, xml_file, capsys):
        assert main(["query", "//a[child::b]", xml_file, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "snapshot-hydrated in workers" in out
        assert "sharded (2 worker process(es)" in out
        assert "node-set of 1 node(s)" in out

    def test_scalar_through_worker_pool(self, xml_file, capsys):
        assert main(["query", "count(//a)", xml_file, "--workers", "2"]) == 0
        assert "result   : 2.0" in capsys.readouterr().out

    def test_workers_with_explicit_engine_rejected(self, xml_file, capsys):
        assert main(
            ["query", "//a", xml_file, "--workers", "2", "--engine", "naive"]
        ) == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["-1", "0", "two"])
    def test_non_positive_worker_counts_rejected_by_the_parser(self, xml_file, bad):
        for argv in (
            ["query", "//a", xml_file, "--workers", bad],
            ["store", "ls", "--store", "/tmp/x", "--workers", bad],
            ["serve", "--store", "/tmp/x", "--workers", bad],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2


class TestServeCommand:
    @pytest.fixture
    def served_store(self, xml_file, tmp_path, capsys):
        store_dir = str(tmp_path / "corpus")
        assert main(["store", "build", xml_file, "--store", store_dir]) == 0
        capsys.readouterr()
        return store_dir

    def _serve(self, monkeypatch, lines, argv):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        return main(argv)

    def test_serves_request_lines(self, served_store, monkeypatch, capsys):
        lines = "doc //a[child::b]\ndoc count(//a)\n\n"
        assert self._serve(
            monkeypatch, lines,
            ["serve", "--store", served_store, "--workers", "2", "--stats"],
        ) == 0
        captured = capsys.readouterr()
        assert "doc\tids=[2]" in captured.out
        assert "doc\tvalue=2.0" in captured.out
        assert "serving             : 2 worker process(es), 2 request(s)" in captured.out
        assert "served   : 2 request(s)" in captured.err

    def test_request_errors_do_not_stop_the_loop(
        self, served_store, monkeypatch, capsys
    ):
        lines = "ghost //a\ndoc //a[\nonlyakey\ndoc count(//a)\n"
        assert self._serve(
            monkeypatch, lines, ["serve", "--store", served_store, "--workers", "1"]
        ) == 0
        captured = capsys.readouterr()
        assert "ghost\terror=StoreKeyError" in captured.out
        assert "doc\terror=XPathSyntaxError" in captured.out
        assert "onlyakey\terror=request needs" in captured.out
        assert "doc\tvalue=2.0" in captured.out
        assert "served   : 1 request(s)" in captured.err

    def test_ids_mode_rejects_scalars(self, served_store, monkeypatch, capsys):
        assert self._serve(
            monkeypatch, "doc count(//a)\n",
            ["serve", "--store", served_store, "--workers", "1", "--ids"],
        ) == 0
        assert "error=XPathEvaluationError" in capsys.readouterr().out


class TestLintCommand:
    """`repro lint` delegates wholesale to the repro.analysis CLI."""

    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "clean.py"
        target.parent.mkdir(parents=True)
        target.write_text("def fine():\n    return 1\n", encoding="utf-8")
        assert main(["lint", str(tmp_path / "src")]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_lint_finding_exits_one(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "engine" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("value._bits = 1\n", encoding="utf-8")
        assert main(["lint", str(tmp_path / "src")]) == 1
        assert "immutability" in capsys.readouterr().out

    def test_lint_forwards_leading_options(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "lock-discipline:" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eval", "//a", "x.xml", "--engine", "warp"])

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])
