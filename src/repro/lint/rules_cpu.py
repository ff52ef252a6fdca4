"""R3 — comparison-counting rule.

The paper's model is comparison-based: alongside block transfers, the
simulator charges key comparisons through the
:mod:`repro.em.comparisons` helpers (``cmp_sort``, ``cmp_search``,
``cmp_linear``, ``cmp_median5``) or ``Machine.charge_comparisons``.  A
raw ``np.sort``/``sorted()``/record ``<`` in algorithm code — or a
``kernel.sort_by_composite``/``partition_at``/``rank_order``/
``bucket_of`` call, since the kernel leaves charging to its caller —
performs comparisons the counter never sees.

The rule is function-local: a sink is clean only if its *outermost*
enclosing ``def`` also charges (module-level statements form one
scope).  A helper whose callers charge is therefore flagged, and so is
a charge hidden behind a callee: the charge belongs beside the work it
pays for.  A ``cmp_*`` name the module defines itself is a shadow, not
a charge.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .engine import LintRule, ModuleContext, register
from .findings import LintFinding

__all__ = ["RawComparisonRule"]

#: Builtins that compare records when handed record data.
_SINK_FUNCS = frozenset({"sorted", "min", "max"})
_SINK_NP_ATTRS = frozenset(
    {
        "sort", "argsort", "lexsort", "partition", "argpartition",
        "searchsorted",
    }
)
#: em helpers that sort/compare records but (by design) leave the
#: charging to their caller.
_SINK_HELPERS = frozenset({"sort_records"})
#: Kernel methods that compare records (called on ``kernel`` or
#: ``<x>.kernel``); the kernel leaves charging to its caller.
_SINK_KERNEL_METHODS = frozenset(
    {"sort_by_composite", "partition_at", "rank_order", "bucket_of"}
)

#: em helpers that register comparisons with the machine.
_CHARGE_HELPERS = frozenset(
    {"cmp_sort", "cmp_search", "cmp_linear", "cmp_median5"}
)

#: Names whose presence in a comparison operand marks it as a *record*
#: comparison (the total order the model counts).
_RECORD_MARKERS = frozenset({"composite", "composite_of"})

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_np_attr(func: ast.AST) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    )


def _mentions_records(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            f = sub.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in _RECORD_MARKERS:
                return True
        elif isinstance(sub, ast.Subscript):
            sl = sub.slice
            if isinstance(sl, ast.Constant) and sl.value in ("key", "uid"):
                return True
    return False


def _is_kernel(node: ast.AST) -> bool:
    """``kernel`` or ``<x>.kernel``."""
    if isinstance(node, ast.Name):
        return node.id == "kernel"
    return isinstance(node, ast.Attribute) and node.attr == "kernel"


def _call_sink(node: ast.Call) -> str | None:
    """Sink name if this call performs uncharged record comparisons."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in _SINK_HELPERS:
            return func.id
        if func.id in _SINK_FUNCS and any(
            _mentions_records(a) for a in node.args
        ):
            return func.id
        return None
    if _is_np_attr(func) and func.attr in _SINK_NP_ATTRS:
        if any(_mentions_records(a) for a in node.args) or any(
            _mentions_records(kw.value) for kw in node.keywords
        ):
            return f"np.{func.attr}"
        return None
    if isinstance(func, ast.Attribute):
        if func.attr in _SINK_KERNEL_METHODS and _is_kernel(func.value):
            return f"kernel.{func.attr}"
        if func.attr == "sort" and _mentions_records(func.value):
            return ".sort()"
    return None


def _sink(node: ast.AST) -> str | None:
    """What ``node`` compares uncharged (``None`` if nothing)."""
    if isinstance(node, ast.Call):
        return _call_sink(node)
    if isinstance(node, ast.Compare) and any(
        isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
    ):
        if any(_mentions_records(o) for o in [node.left, *node.comparators]):
            return "<compare>"
    return None


def _scopes(tree: ast.Module) -> Iterator[tuple[str, list[ast.AST]]]:
    """Split a module into R3's scopes: ``(qualname, nodes)`` for each
    outermost ``def`` (nested defs included), then ``("", nodes)`` for
    the module-level statements."""
    module_nodes: list[ast.AST] = []
    stack: list[tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                yield prefix + child.name, list(ast.walk(child))
                continue
            module_nodes.append(child)
            if isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}{child.name}."))
            else:
                stack.append((child, prefix))
    yield "", module_nodes


def _charges(node: ast.AST, shadows: frozenset[str]) -> bool:
    """True for a ``cmp_*`` helper call the module does not shadow, or a
    ``.charge_comparisons(...)`` call."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "charge_comparisons":
        return True
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name in _CHARGE_HELPERS and name not in shadows


@register
class RawComparisonRule(LintRule):
    """R3: record comparisons must be charged to the comparison counter."""

    rule_id = "R3"
    title = "record comparisons must route through em.comparisons"
    rationale = (
        "CPU cost in the model is key comparisons; the lemma-level "
        "claims (decision-tree lower bounds, Θ(N·lg K) internal work) "
        "are checked against the machine's comparison counter.  A "
        "`np.sort`/`sorted()`/`sort_records` call, a "
        "`kernel.sort_by_composite`/`partition_at`/`rank_order`/"
        "`bucket_of` call, or a raw `<`/`<=` over record composites is "
        "clean only when its outermost enclosing function also calls a "
        "`cmp_*` helper or `charge_comparisons`.  Anything else "
        "performs comparisons the counter misses."
    )

    def check(self, ctx: ModuleContext) -> Iterable[LintFinding]:
        if not ctx.in_algorithm_layer or ctx.is_test:
            return
        shadows = frozenset(
            n.name for n in ast.walk(ctx.tree)
            if isinstance(n, _DEFS) and n.name in _CHARGE_HELPERS
        )
        for scope, nodes in _scopes(ctx.tree):
            sinks = [(n, s) for n in nodes if (s := _sink(n)) is not None]
            if not sinks or any(_charges(n, shadows) for n in nodes):
                continue
            where = f"`{scope}`" if scope else "module scope"
            for node, sink in sinks:
                if sink == "<compare>":
                    what = "raw order comparison over record keys/composites"
                else:
                    what = f"`{sink}` compares records"
                yield self.finding(
                    ctx,
                    node,
                    f"{what} but {where} never charges the comparison "
                    f"counter (pair it with a `cmp_*` helper in the same "
                    f"function)",
                )
