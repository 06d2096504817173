"""The ``python -m repro.analysis`` command line, end to end."""

import json
from pathlib import Path

import pytest

from repro.analysis import main

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

CLEAN = "def fine():\n    return 1\n"
DIRTY = "value._bits = 1\n"


def write_tree(tmp_path, files):
    for relative, text in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return tmp_path


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {"src/repro/clean.py": CLEAN})
        assert main([str(tree / "src")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 finding(s)" in captured.err

    def test_finding_exits_one(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {"src/repro/engine/dirty.py": DIRTY})
        assert main([str(tree / "src")]) == 1
        line = capsys.readouterr().out.strip()
        assert " immutability " in line
        assert line.startswith(str(tree / "src"))
        assert ":1 " in line

    def test_unknown_rule_is_a_usage_error(self, tmp_path):
        tree = write_tree(tmp_path, {"src/repro/clean.py": CLEAN})
        with pytest.raises(SystemExit) as excinfo:
            main([str(tree / "src"), "--rule", "no-such-rule"])
        assert excinfo.value.code == 2

    def test_missing_path_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "nowhere")])
        assert excinfo.value.code == 2

    def test_missing_baseline_is_a_usage_error(self, tmp_path):
        tree = write_tree(tmp_path, {"src/repro/clean.py": CLEAN})
        with pytest.raises(SystemExit) as excinfo:
            main(
                [str(tree / "src"), "--baseline", str(tmp_path / "no.json")]
            )
        assert excinfo.value.code == 2


class TestOptions:
    def test_list_rules_names_every_checker(self, tmp_path, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "lock-discipline", "wire-exhaustive", "async-blocking",
            "immutability", "exception-hygiene", "api-surface",
            "suppression",
        ):
            assert f"{name}:" in out

    def test_rule_selection_limits_the_run(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {"src/repro/engine/dirty.py": DIRTY})
        assert main([str(tree / "src"), "--rule", "exception-hygiene"]) == 0
        assert main([str(tree / "src"), "--rule", "immutability"]) == 1

    def test_output_is_deterministic(self, tmp_path, capsys):
        tree = write_tree(
            tmp_path,
            {
                "src/repro/engine/bb.py": DIRTY,
                "src/repro/engine/aa.py": DIRTY + "other.universe = 1\n",
            },
        )
        main([str(tree / "src")])
        first = capsys.readouterr().out
        main([str(tree / "src")])
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines() == sorted(first.splitlines())
        assert len(first.splitlines()) == 3

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {"src/repro/engine/dirty.py": DIRTY})
        assert main([str(tree / "src"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        [finding] = payload["findings"]
        assert finding["rule"] == "immutability"
        assert finding["line"] == 1
        assert finding["severity"] == "error"

    def test_baseline_roundtrip(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {"src/repro/engine/dirty.py": DIRTY})
        baseline = tmp_path / "baseline.json"
        assert main([str(tree / "src"), "--write-baseline", str(baseline)]) == 0
        assert "wrote 1 finding(s)" in capsys.readouterr().out
        assert main([str(tree / "src"), "--baseline", str(baseline)]) == 0
        # A new finding is not covered by the old baseline.
        (tree / "src/repro/engine/dirty.py").write_text(
            DIRTY + "other.universe = 1\n", encoding="utf-8"
        )
        assert main([str(tree / "src"), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "universe" in out
        assert "_bits" not in out

    def test_show_suppressed_lists_the_silenced(self, tmp_path, capsys):
        tree = write_tree(
            tmp_path,
            {
                "src/repro/engine/dirty.py": (
                    "value._bits = 1"
                    "  # repro: allow[immutability] -- fixture\n"
                )
            },
        )
        assert main([str(tree / "src"), "--show-suppressed"]) == 0
        captured = capsys.readouterr()
        assert "[suppressed]" in captured.out
        assert "1 suppression(s) in force" in captured.err

    def test_max_suppressions_override(self, tmp_path):
        tree = write_tree(
            tmp_path,
            {
                "src/repro/engine/dirty.py": (
                    "a._bits = 1  # repro: allow[immutability] -- one\n"
                    "b._bits = 2  # repro: allow[immutability] -- two\n"
                )
            },
        )
        assert main([str(tree / "src")]) == 0
        assert main([str(tree / "src"), "--max-suppressions", "1"]) == 1


class TestAgainstTheRealTree:
    """The acceptance gates: src is clean, and sabotage is caught."""

    def test_the_shipped_source_tree_is_clean(self, capsys):
        assert main([str(SRC)]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_every_shared_attr_row_names_live_state(self):
        """A registry row guards nothing once its attribute or lock is gone:
        each class must still assign both on ``self`` somewhere in ``src/``."""
        import ast

        from repro.analysis.config import SHARED_CLASS_ATTRS

        assigned: dict[str, set[str]] = {}
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef):
                    assigned.setdefault(node.name, set()).update(
                        target.attr
                        for target in ast.walk(node)
                        if isinstance(target, ast.Attribute)
                        and isinstance(target.ctx, ast.Store)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    )
        stale = [
            (cls, name)
            for (cls, attr), lock in SHARED_CLASS_ATTRS.items()
            for name in (attr, lock)
            if name not in assigned.get(cls, ())
        ]
        assert stale == []

    def copy_serving(self, tmp_path, mutate=None):
        files = {}
        for name in ("wire.py", "worker.py", "server.py", "client.py"):
            text = (SRC / "repro/serving" / name).read_text(encoding="utf-8")
            if mutate is not None:
                text = mutate(name, text)
            files[f"src/repro/serving/{name}"] = text
        return write_tree(tmp_path, files)

    def test_intact_serving_copy_is_clean(self, tmp_path):
        tree = self.copy_serving(tmp_path)
        assert main([str(tree / "src"), "--rule", "wire-exhaustive"]) == 0

    def test_deleting_a_worker_handler_arm_fails_lint(self, tmp_path, capsys):
        def strip_ping(name, text):
            if name == "worker.py":
                return text.replace("MSG_PING", "NOT_A_FRAME")
            return text

        tree = self.copy_serving(tmp_path, strip_ping)
        assert main([str(tree / "src"), "--rule", "wire-exhaustive"]) == 1
        out = capsys.readouterr().out
        assert "MSG_PING" in out
        assert "worker.py" in out

    def test_moving_a_shared_write_outside_its_lock_fails_lint(
        self, tmp_path, capsys
    ):
        engine = (SRC / "repro/engine/engine.py").read_text(encoding="utf-8")
        sabotaged = engine.replace("with self._store_lock:", "if True:")
        assert sabotaged != engine
        tree = write_tree(
            tmp_path, {"src/repro/engine/engine.py": sabotaged}
        )
        assert main([str(tree / "src"), "--rule", "lock-discipline"]) == 1
        out = capsys.readouterr().out
        assert "lock-discipline" in out
        assert "_store" in out
