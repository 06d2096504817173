"""Checker 3 — ``async-blocking``: the event loop must never block.

Inside ``async def`` bodies of the network tier (``serving/server.py``,
``serving/client.py``), calls that block a thread — ``time.sleep``,
synchronous socket/pipe I/O, thread joins, ``Future.result``, and the
pool's synchronous entry points (``evaluate_batch`` et al. run a whole
blocking pipe conversation) — are findings, with two escapes:

* a call that is directly ``await``-ed is a coroutine, not a block
  (``await asyncio.sleep(...)``, ``await event.wait()``);
* a call inside the argument list of a declared escape
  (``run_in_executor``, ``asyncio.to_thread``, ``asyncio.wait_for``) is
  being handed to a thread or wrapped, which is exactly the sanctioned
  pattern: a blocking pool call waits on an executor thread while the
  event loop drives the pool.

Nested ``def``/``lambda`` bodies are skipped: they execute on whatever
thread calls them, which for this codebase is the executor.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.framework import Finding, Project, Rule, register


def _dotted(node: ast.expr) -> Optional[str]:
    """``time.sleep`` → ``"time.sleep"`` (name chains only)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _AsyncBody(ast.NodeVisitor):
    """Scans one ``async def`` body for blocking calls."""

    def __init__(self, rule: Rule, path: str, config) -> None:
        self.rule = rule
        self.path = path
        self.config = config
        self.findings: list[Finding] = []
        self.shield = 0  # > 0 inside await / escape-call arguments

    def visit_FunctionDef(self, node) -> None:  # nested sync defs: skip
        return

    def visit_Lambda(self, node) -> None:
        return

    def visit_AsyncFunctionDef(self, node) -> None:  # nested async: its own scan
        return

    def visit_Await(self, node: ast.Await) -> None:
        self.shield += 1
        self.generic_visit(node)
        self.shield -= 1

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name in self.config.async_escapes:
            # The callee itself is fine; its arguments are sanctioned.
            self.visit(func)
            self.shield += 1
            for arg in node.args:
                self.visit(arg)
            for keyword in node.keywords:
                self.visit(keyword.value)
            self.shield -= 1
            return
        if self.shield == 0:
            dotted = _dotted(func)
            blocked = (
                dotted in self.config.blocking_calls
                or (
                    isinstance(func, ast.Attribute)
                    and func.attr in self.config.blocking_methods
                )
                or (
                    isinstance(func, ast.Name)
                    and func.id in self.config.blocking_calls
                )
            )
            if blocked:
                label = dotted or name or "<call>"
                self.findings.append(
                    self.rule.finding(
                        self.path, node.lineno,
                        f"blocking call '{label}(...)' inside an async "
                        "body; await it, or hand it to an executor "
                        "thread (run_in_executor)",
                    )
                )
        self.generic_visit(node)


@register
class AsyncBlocking(Rule):
    name = "async-blocking"
    description = (
        "no blocking calls inside async def bodies of the network tier "
        "except via the declared executor-thread escapes"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        config = project.config
        for file in project:
            if file.tree is None:
                continue
            if not any(file.path.endswith(s) for s in config.async_scope):
                continue
            for node in ast.walk(file.tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    scanner = _AsyncBody(self, file.path, config)
                    for statement in node.body:
                        scanner.visit(statement)
                    yield from scanner.findings
