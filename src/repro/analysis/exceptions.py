"""Checker 5 — ``exception-hygiene``: no silent swallowing, typed loops.

Two tiers:

* **everywhere** — a bare ``except:`` is always a finding; an ``except
  Exception``/``except BaseException`` handler must *do something* with
  what it caught: re-raise (plain or ``raise … from``), log it, or at
  least bind and use the exception object (converting it into a typed
  wire frame or stashing it for another thread both count).  A broad
  handler whose body neither raises, logs, nor reads the bound exception
  is swallowing errors it cannot even name;
* **serving loops** (``LOOP_FUNCTIONS``: the worker's receive loop and
  the pool's reader callback and completion hook) — merely *using* the
  error is not enough, because one of these loops dying or
  mis-converting takes the whole serving tier with it: a broad catch
  here must re-raise or log,
  and anything expected must already arrive as the typed
  :mod:`repro.errors` / ``ServingError`` taxonomy.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.framework import Finding, Project, Rule, register


def _exception_names(node: Optional[ast.expr]) -> list[str]:
    """The exception class names an ``except`` clause matches."""
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        names = []
        for element in node.elts:
            names.extend(_exception_names(element))
        return names
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _contains_raise(body: list[ast.stmt]) -> bool:
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Raise):
                return True
    return False


def _contains_logging(body: list[ast.stmt], logger_names: frozenset[str]) -> bool:
    for statement in body:
        for node in ast.walk(statement):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                if func.value.id in logger_names:
                    return True
    return False


def _uses_name(body: list[ast.stmt], name: Optional[str]) -> bool:
    if name is None:
        return False
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and node.id == name and isinstance(
                node.ctx, ast.Load
            ):
                return True
    return False


@register
class ExceptionHygiene(Rule):
    name = "exception-hygiene"
    description = (
        "no bare/broad except that swallows silently; serving loops catch "
        "only the typed taxonomy (or log what escapes it)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        config = project.config
        for file in project:
            if file.tree is None:
                continue
            loop_names = frozenset()
            for suffix, names in config.loop_functions.items():
                if file.path.endswith(suffix):
                    loop_names = names
                    break
            yield from self._check_file(file, loop_names, config)

    def _check_file(self, file, loop_names, config) -> Iterator[Finding]:
        assert file.tree is not None
        # (handler, name of the enclosing function, if any)
        stack: list[tuple[ast.AST, Optional[str]]] = [(file.tree, None)]
        while stack:
            node, function = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.ExceptHandler):
                finding = self._check_handler(
                    file.path, node, function, loop_names, config
                )
                if finding is not None:
                    yield finding
            for child in ast.iter_child_nodes(node):
                stack.append((child, function))

    def _check_handler(
        self, path, handler: ast.ExceptHandler, function, loop_names, config
    ) -> Optional[Finding]:
        names = _exception_names(handler.type)
        if handler.type is None:
            return self.finding(
                path, handler.lineno,
                "bare `except:` — name the exceptions this handler expects",
            )
        if not any(name in config.broad_exceptions for name in names):
            return None
        broad = next(n for n in names if n in config.broad_exceptions)
        reraises = _contains_raise(handler.body)
        logs = _contains_logging(handler.body, config.logger_names)
        in_loop = function is not None and function in loop_names
        if in_loop:
            if reraises or logs:
                return None
            return self.finding(
                path, handler.lineno,
                f"serving loop '{function}' catches '{broad}': loops may "
                "only catch the typed ReproError/ServingError taxonomy, or "
                "must log what escapes it",
            )
        if reraises or logs or _uses_name(handler.body, handler.name):
            return None
        return self.finding(
            path, handler.lineno,
            f"broad `except {broad}` swallows without re-raising, logging, "
            "or using the exception",
        )
