"""Checker 1 — ``lock-discipline``: shared writes and lock ordering.

Two static race/deadlock lints over the declared lock registry in
:mod:`repro.analysis.config`:

* a write to an attribute declared shared (``SHARED_CLASS_ATTRS``) must
  sit *lexically* inside a ``with`` on the declared guarding lock of
  ``self`` — construction
  (``__init__``/``__new__``) is exempt, because the object is not yet
  published;
* a ``with`` that acquires a lock from the declared hierarchy while
  another hierarchy lock is already held lexically must acquire *inward*
  (same or later position in ``LOCK_ORDER``) — acquiring outward is the
  classic lock-inversion deadlock shape.

The analysis is lexical on purpose: it cannot see a lock held across a
call boundary, but it also never false-positives on one, and every
invariant the registry records is in practice maintained lexically.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.framework import Finding, Project, Rule, register


def _receiver_of(node: ast.expr) -> Optional[str]:
    """``self._lock`` → ``"self"``; ``handle._handle_lock`` → ``"handle"``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id
    return None


class _ScopeVisitor(ast.NodeVisitor):
    """Walks one file tracking (class, function, held-locks) context."""

    def __init__(self, rule: "LockDiscipline", path: str, config) -> None:
        self.rule = rule
        self.path = path
        self.config = config
        self.findings: list[Finding] = []
        self.class_stack: list[str] = []
        self.function_stack: list[str] = []
        # each entry: (receiver, lock attr, order index or None)
        self.with_stack: list[tuple[str, str, Optional[int]]] = []

    # -- scope bookkeeping -------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node) -> None:
        self.function_stack.append(node.name)
        saved = self.with_stack
        self.with_stack = []  # locks do not stay held across a def boundary
        self.generic_visit(node)
        self.with_stack = saved
        self.function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- with: lock acquisition --------------------------------------------

    def _lock_of(self, item: ast.withitem) -> Optional[tuple[str, str]]:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and expr.attr in self.config.lock_order:
            receiver = _receiver_of(expr)
            if receiver is not None:
                return receiver, expr.attr
        return None

    def visit_With(self, node: ast.With) -> None:
        acquired = 0
        for item in node.items:
            lock = self._lock_of(item)
            if lock is None:
                continue
            receiver, attr = lock
            index = self.config.lock_order.index(attr)
            for _, held_attr, held_index in self.with_stack:
                if held_index is not None and index < held_index:
                    self.findings.append(
                        self.rule.finding(
                            self.path, node.lineno,
                            f"acquires '{attr}' while holding '{held_attr}': "
                            "the declared hierarchy orders "
                            f"'{attr}' outside '{held_attr}'",
                        )
                    )
                    break
            self.with_stack.append((receiver, attr, index))
            acquired += 1
        self.generic_visit(node)
        if acquired:
            del self.with_stack[-acquired:]

    visit_AsyncWith = visit_With

    # -- attribute writes ---------------------------------------------------

    def _holds(self, receiver: str, lock_attr: str) -> bool:
        return any(
            held_receiver == receiver and held_attr == lock_attr
            for held_receiver, held_attr, _ in self.with_stack
        )

    def _check_write(self, target: ast.expr, line: int) -> None:
        if not isinstance(target, ast.Attribute):
            return
        receiver = _receiver_of(target)
        if receiver != "self" or not self.class_stack:
            return
        attr = target.attr
        lock_attr = self.config.shared_class_attrs.get((self.class_stack[-1], attr))
        if lock_attr is None:
            return
        if self.function_stack and self.function_stack[-1] in self.config.init_methods:
            return
        if self._holds(receiver, lock_attr):
            return
        self.findings.append(
            self.rule.finding(
                self.path, line,
                f"write to shared attribute '{receiver}.{attr}' outside "
                f"`with {receiver}.{lock_attr}`",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_write(node.target, node.lineno)
        self.generic_visit(node)


@register
class LockDiscipline(Rule):
    name = "lock-discipline"
    description = (
        "writes to declared shared attributes must hold the declared lock; "
        "nested lock acquisitions must follow the hierarchy"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        config = project.config
        for file in project:
            if file.tree is None:
                continue
            if not any(scope in file.path for scope in config.lock_scope):
                continue
            visitor = _ScopeVisitor(self, file.path, config)
            visitor.visit(file.tree)
            yield from visitor.findings
