"""R5 — lease-lifecycle rule.

``MemoryAccountant.lease`` reserves part of the model's memory ``M``;
a lease that is never released keeps shrinking the budget every caller
sees (``Machine.load_limit``), so composed algorithms mysteriously run
out of memory.  The rule is owner-local: each ``.lease(...)`` result
must be released by the code that took it, in one of three ways::

    with machine.memory.lease(size, "label"):   # or `with lease:`
        ...

    lease = machine.memory.lease(size, "label")
    try:
        ...
    finally:
        lease.release()

    self._lease = machine.memory.lease(size, "label")  # the class's
    ...                                                # own methods
    def close(self):                                   # release it
        self._lease.release()

A lease that is returned, passed to another call, discarded, or left in
a local is a finding: its release would rest on code this module does
not show.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .engine import LintRule, ModuleContext, register
from .findings import LintFinding

__all__ = ["LeaseLifecycleRule"]


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _released(node: ast.AST, target: str) -> bool:
    """Does ``node`` call ``<target>.release()`` anywhere inside it?
    (``target`` is a local name or ``self.X`` rendered as a string.)"""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "release"
            and ast.unparse(sub.func.value) == target
        ):
            return True
    return False


def _class_releases(cls: ast.ClassDef | None, attr: str) -> bool:
    """Do ``cls``'s own methods release or context-exit ``self.<attr>``?"""
    if cls is None:
        return False
    if _released(cls, f"self.{attr}"):
        return True
    return any(
        _self_attr(item.context_expr) == attr
        for node in ast.walk(cls)
        if isinstance(node, (ast.With, ast.AsyncWith))
        for item in node.items
    )


def _local_disposition(
    scope: ast.AST, var: str, cls: ast.ClassDef | None
) -> tuple[str, str | None]:
    """How the function ``scope`` disposes of the lease held in ``var``:
    a disposition kind plus a detail for the message."""
    stored: str | None = None
    returned = False
    passed_to: str | None = None
    for node in ast.walk(scope):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if any(
                isinstance(item.context_expr, ast.Name)
                and item.context_expr.id == var
                for item in node.items
            ):
                return "clean", None
        elif isinstance(node, ast.Try):
            if any(_released(stmt, var) for stmt in node.finalbody):
                return "clean", None
        elif isinstance(node, ast.Assign):
            if isinstance(node.value, ast.Name) and node.value.id == var:
                for target in node.targets:
                    stored = _self_attr(target) or stored
        elif isinstance(node, ast.Return):
            if isinstance(node.value, ast.Name) and node.value.id == var:
                returned = True
        elif isinstance(node, ast.Call) and passed_to is None:
            args = [*node.args, *(kw.value for kw in node.keywords)]
            if any(isinstance(a, ast.Name) and a.id == var for a in args):
                passed_to = ast.unparse(node.func)
    if stored is not None:
        return _attr_disposition(cls, stored)
    if returned:
        return "returned", None
    if passed_to is not None:
        return "passed", passed_to
    return "local", None


def _attr_disposition(
    cls: ast.ClassDef | None, attr: str
) -> tuple[str, str | None]:
    if _class_releases(cls, attr):
        return "clean", None
    return "write-only", attr


def _disposition(
    parent: ast.AST, scope: ast.AST, cls: ast.ClassDef | None
) -> tuple[str, str | None]:
    """What happens to a lease whose ``.lease(...)`` call sits under
    ``parent`` in function ``scope``: a key of :data:`_MESSAGES` (or
    ``"clean"``) plus a detail for the message."""
    if isinstance(parent, ast.withitem):
        return "clean", None
    if isinstance(parent, ast.Expr):
        return "discarded", None
    if isinstance(parent, ast.Return):
        return "returned", None
    if isinstance(parent, ast.Call):
        return "passed", ast.unparse(parent.func)
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        target = parent.targets[0]
        if isinstance(target, ast.Name):
            return _local_disposition(scope, target.id, cls)
        if _self_attr(target) is not None:
            return _attr_disposition(cls, _self_attr(target))
    return "other", None


#: Finding message per failing disposition.
_MESSAGES = {
    "discarded": (
        "lease result is discarded on the spot — the reservation can "
        "never be released"
    ),
    "write-only": (
        "lease stored on `self.{detail}` but no method of `{cls}` "
        "releases or context-exits it — a write-only lease attribute is "
        "a structural leak"
    ),
    "returned": (
        "lease returned from {owner} leaves its release to every caller; "
        "take it where it is released (`with`, a `finally`, or an owning "
        "class)"
    ),
    "passed": (
        "lease passed to `{detail}()` in {owner} is released out of this "
        "function's view; enter it by a `with` or release it in a "
        "`finally` here"
    ),
    "local": (
        "lease held in a local in {owner} is neither entered by a `with` "
        "nor released in a `finally`; an exception here leaks the memory"
    ),
    "other": (
        "lease result must be entered by a `with`, released in a "
        "`finally`, or stored on `self` in a class that releases it"
    ),
}


@register
class LeaseLifecycleRule(LintRule):
    """R5: every lease is released by its owner on all paths — via
    ``with``, a ``finally``, or the class that stores it on ``self``."""

    rule_id = "R5"
    title = "leases need an exception-safe release"
    rationale = (
        "A leaked `MemoryLease` permanently shrinks the free memory the "
        "accountant reports, so later phases and composed callers see a "
        "smaller machine than `M` — the classic source of spurious "
        "`MemoryBudgetError`s and, worse, of algorithms silently "
        "switching to more I/O-expensive small-memory code paths.  An "
        "exception between `lease()` and `release()` must not leak: "
        "enter the lease with `with`, release it in a `finally` of the "
        "same function, or store it on `self` in a class whose own "
        "methods release it.  A lease returned or passed to another "
        "call leaves its release to code this module does not show."
    )

    def check(self, ctx: ModuleContext) -> Iterable[LintFinding]:
        if ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "lease"
            ):
                continue
            scope = ctx.enclosing_function(node)
            cls = next(
                (a for a in ctx.ancestors(node)
                 if isinstance(a, ast.ClassDef)),
                None,
            )
            kind, detail = _disposition(ctx.parent(node), scope, cls)
            if kind == "clean":
                continue
            owner = "module scope" if scope is ctx.tree else f"`{scope.name}`"
            yield self.finding(ctx, node, _MESSAGES[kind].format(
                detail=detail, cls=cls.name if cls else "?", owner=owner,
            ))
