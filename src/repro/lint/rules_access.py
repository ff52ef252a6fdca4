"""R1/R2 — accounting-boundary rules.

R1 keeps the em layer's private internals private: algorithm code that
pokes ``disk._blocks`` or ``accountant._in_use`` bypasses the I/O and
memory accounting every experimental claim rests on.  R2 confines the
*sanctioned* escape hatches (``Disk.peek``, ``uncounted()`` and
``EMFile.to_numpy``) to the layers that own them: em, obs, and test
code.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .engine import LintRule, ModuleContext, register
from .findings import LintFinding

__all__ = ["PrivateInternalsRule", "UncountedEscapeRule", "EM_PRIVATE_ATTRS"]

#: Private attributes of the em substrate (Disk, IOCounters,
#: MemoryAccountant, MemoryLease, Machine).  Touching any of these from
#: outside ``em``/``obs`` reads or mutates accounting state directly.
EM_PRIVATE_ATTRS = frozenset(
    {
        # Disk
        "_blocks", "_arena", "_freelist", "_next_id",
        "_counters", "_lifetime", "_phase_stack", "_phase_path",
        "_counting", "_peak_blocks", "_charge",
        "_freed_ids", "_written_ids", "_check_block",
        # MemoryAccountant / MemoryLease
        "_in_use", "_peak", "_capacity", "_live_leases", "_notify",
        "_resize", "_release", "_accountant",
        # Machine
        "_comparisons", "_lifetime_comparisons", "_observers",
        "_sanitize",
    }
)


@register
class PrivateInternalsRule(LintRule):
    """R1: no access to private ``Disk``/``MemoryAccountant`` internals
    outside the em and obs layers."""

    rule_id = "R1"
    title = "no private em internals outside em/ and obs/"
    rationale = (
        "Every Θ-shape the reproduction reports assumes all block I/Os "
        "and memory reservations flow through the counted public API. "
        "Code that reaches into `disk._blocks`, `accountant._in_use`, "
        "or any other private em attribute can read or mutate state "
        "without the counters noticing, silently invalidating the "
        "measurements.  Only `em/` (the owner) and `obs/` (the "
        "observability layer built on sanctioned hooks) are exempt."
    )

    def check(self, ctx: ModuleContext) -> Iterable[LintFinding]:
        if ctx.in_em_layer:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in EM_PRIVATE_ATTRS:
                continue
            # `self._peak` etc. on an unrelated class is that class's
            # own business — only cross-object pokes are em internals.
            if isinstance(node.value, ast.Name) and node.value.id in (
                "self",
                "cls",
            ):
                continue
            yield self.finding(
                ctx,
                node,
                f"access to private em-layer internal `.{node.attr}` "
                f"bypasses the accounting; use the public counted API",
            )


#: Call names that read or run outside the I/O accounting.
_ESCAPE_CALLS = ("peek", "uncounted", "to_numpy")


@register
class UncountedEscapeRule(LintRule):
    """R2: no ``peek``/``uncounted()``/``to_numpy`` in algorithm code."""

    rule_id = "R2"
    title = "no uncounted escape hatches in algorithm code"
    rationale = (
        "`Disk.peek`, `Machine.uncounted()` and `EMFile.to_numpy()` "
        "exist so that tests, input staging, and verification can look "
        "at data without charging model I/Os.  Inside algorithm subsystems (alg/, baselines/, "
        "core/, service/, apps/) the same calls are unaccounted disk "
        "traffic: the algorithm observes data it never paid to read, "
        "and the measured I/O undercounts the paper's cost model."
    )

    def check(self, ctx: ModuleContext) -> Iterable[LintFinding]:
        if not ctx.in_algorithm_layer or ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in _ESCAPE_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"`.{func.attr}()` is an observability-only escape "
                    f"hatch; algorithm code must pay for every access "
                    f"(use counted reads such as `read_runs`, or justify "
                    f"with a suppression)",
                )
