"""The documentation stays true: code fences execute, links resolve.

Five guarantees over ``README.md`` and ``docs/*.md`` (this is the suite
the CI ``docs`` job runs):

* every fenced ```python`` block is executed, doctest-style, in a fresh
  namespace — examples that rot fail the build (illustrative, non-code
  fences use ```text`` and are skipped);
* every relative markdown link between the README and ``docs/`` resolves
  to an existing file;
* every ``#anchor`` in a relative (or in-page) link resolves to a real
  heading of its target, under GitHub's slug rules — renaming a section
  breaks the build, not the reader;
* the ``docs/`` pages form a connected set: each page is linked from the
  README *and* cross-linked from at least one sibling page, and each
  page links back into the set (no orphans, no dead ends);
* the docstring examples of the public API modules pass under
  :mod:`doctest` (the README points readers at them).
"""

import doctest
import importlib
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

_FENCE = re.compile(r"^```(\w*)\s*$")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")

#: Public-API modules whose docstring examples the README advertises.
DOCTESTED_MODULES = (
    "repro.engine.engine",
    "repro.evaluation.api",
    "repro.evaluation.core",
    "repro.planner.batch",
    "repro.planner.cache",
    "repro.planner.plan",
    "repro.serving.wire",
    "repro.store.corpus",
    "repro.telemetry.exposition",
    "repro.telemetry.metrics",
    "repro.telemetry.slowlog",
    "repro.telemetry.trace",
    "repro.xmlmodel.document",
    "repro.xmlmodel.idset",
    "repro.xmlmodel.index",
    "repro.xmlmodel.kernels",
    "repro.xmlmodel.parser",
)


def _fences(path, language):
    """Yield (start_line, code) for every fenced block of ``language``."""
    in_fence = False
    keep = False
    start = 0
    buffer: list[str] = []
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _FENCE.match(line.strip())
        if match and not in_fence:
            in_fence = True
            keep = match.group(1) == language
            start = number
            buffer = []
        elif match and in_fence:
            if keep:
                yield start, "\n".join(buffer)
            in_fence = False
        elif in_fence and keep:
            buffer.append(line)


def _python_fence_cases():
    for path in DOC_FILES:
        for start, code in _fences(path, "python"):
            yield pytest.param(
                path, start, code, id=f"{path.name}:L{start}"
            )


@pytest.mark.parametrize("path,start,code", list(_python_fence_cases()))
def test_python_fences_execute(path, start, code):
    namespace = {"__name__": f"docfence_{path.stem}_{start}"}
    try:
        exec(compile(code, f"{path.name}:fence@L{start}", "exec"), namespace)
    except Exception as error:  # pragma: no cover - failure reporting
        pytest.fail(f"{path.name} code fence at line {start} failed: {error!r}")


def test_there_are_python_fences_to_check():
    # Guard against the extractor silently matching nothing.
    assert len(list(_python_fence_cases())) >= 5


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(path):
    broken = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.name} has broken relative links: {broken}"


def _github_slug(heading):
    """GitHub's anchor slug for a markdown heading (inline markup stripped)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # inline code keeps its text
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links keep label
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def _anchors(path):
    """Every heading anchor ``path`` exposes (with GitHub's -1, -2 dedup)."""
    seen: dict[str, int] = {}
    anchors = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        match = None if in_fence else _HEADING.match(line)
        if not match:
            continue
        slug = _github_slug(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_anchor_links_resolve(path):
    """Every ``target.md#anchor`` (and in-page ``#anchor``) names a heading."""
    dangling = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if "#" not in target:
            continue
        file_part, anchor = target.split("#", 1)
        target_path = path if not file_part else (path.parent / file_part).resolve()
        if not (target_path.exists() and target_path.suffix == ".md"):
            continue  # existence is test_relative_links_resolve's job
        if anchor not in _anchors(target_path):
            dangling.append(target)
    assert not dangling, f"{path.name} has dangling anchors: {dangling}"


def test_doc_set_is_fully_cross_linked():
    """docs↔docs connectivity: no orphan pages, no dead-end pages.

    Every ``docs/*.md`` must be linked from the README **and** from at
    least one sibling docs page, and must itself link to at least one
    sibling — the doc set reads as one navigable web, not a pile of
    files the README happens to mention.
    """
    doc_names = sorted(
        path.name for path in DOC_FILES if path.parent.name == "docs"
    )
    readme_targets = _LINK.findall((REPO_ROOT / "README.md").read_text("utf-8"))
    outgoing = {}
    for name in doc_names:
        targets = _LINK.findall((REPO_ROOT / "docs" / name).read_text("utf-8"))
        outgoing[name] = {
            target.split("#", 1)[0].removeprefix("./")
            for target in targets
            if target.split("#", 1)[0].endswith(".md")
        }
    for name in doc_names:
        assert f"docs/{name}" in readme_targets, f"README must link docs/{name}"
        siblings_linking_here = [
            other for other in doc_names
            if other != name and name in outgoing[other]
        ]
        assert siblings_linking_here, f"docs/{name} is an orphan within docs/"
        assert outgoing[name] & set(doc_names), (
            f"docs/{name} is a dead end: it links to no sibling docs page"
        )


@pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
def test_docstring_examples(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module_name}: {result.failed} doctest failure(s)"
    assert result.attempted > 0, f"{module_name} advertises no worked examples"
