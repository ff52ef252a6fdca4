"""R4 — seeded-randomness rule.

Every experiment in this reproduction is bit-for-bit reproducible: the
randomized algorithms (§5), the workload generators, and the query
traces all thread explicit seeds into local
``np.random.Generator`` instances.  Global-state RNG (``random.*``
module functions, legacy ``np.random.*`` functions, or an *unseeded*
``default_rng()``) silently breaks that guarantee — two runs of the same
experiment would measure different instances.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .engine import LintRule, ModuleContext, register
from .findings import LintFinding

__all__ = ["UnseededRngRule"]

#: ``np.random.<name>`` calls that *construct* a generator from an
#: explicit seed/bit-generator argument — the sanctioned API.
_SEEDED_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
     "MT19937", "SFC64"}
)


def _np_random_call(node: ast.Call) -> str | None:
    """Return ``name`` for calls of the form ``np.random.name(...)`` /
    ``numpy.random.name(...)``, else None."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    mod = func.value
    if (
        isinstance(mod, ast.Attribute)
        and mod.attr == "random"
        and isinstance(mod.value, ast.Name)
        and mod.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


@register
class UnseededRngRule(LintRule):
    """R4: no unseeded / global-state randomness under ``src/repro``."""

    rule_id = "R4"
    title = "randomness must come from an explicitly seeded Generator"
    rationale = (
        "Experiment reproducibility is part of the contract: results, "
        "budget envelopes, and runner records in results.json are compared "
        "across commits.  Module-level `random.*` and legacy "
        "`np.random.*` functions draw from hidden global state, and "
        "`np.random.default_rng()` without a seed randomizes from the "
        "OS; any of them makes a measurement unrepeatable.  Construct "
        "`np.random.default_rng(seed)` locally and pass it around."
    )

    def check(self, ctx: ModuleContext) -> Iterable[LintFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # stdlib `random.<fn>(...)` — module-level global RNG.  The
            # seeded class form `random.Random(seed)` is allowed.
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                if func.attr == "Random" and node.args:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"`random.{func.attr}()` uses the global RNG; use a "
                    f"seeded `np.random.default_rng(seed)` instead",
                )
                continue
            name = _np_random_call(node)
            if name is None:
                continue
            if name in _SEEDED_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        f"`np.random.{name}()` without a seed is "
                        f"entropy-seeded; pass an explicit seed",
                    )
                continue
            yield self.finding(
                ctx,
                node,
                f"legacy `np.random.{name}()` draws from global state; "
                f"use a seeded `np.random.default_rng(seed)`",
            )
