"""emlint — EM-model conformance linter for the reproduction.

Static layer of the correctness-analysis suite (the dynamic layer is
the em sanitizer, ``Machine(sanitize=True)`` / ``EM_SANITIZE=1``).
Since v2 the engine is *whole-program*: every module is summarized
(:mod:`repro.lint.project`), the summaries are resolved into a project
call graph (:mod:`repro.lint.callgraph`), and interprocedural dataflow
facts (:mod:`repro.lint.dataflow`) feed the rules, so a charge in a
caller clears a sink in a helper and a lease can be followed across
functions.  Per-module work is served from a content-addressed cache
(:mod:`repro.lint.cache`) on warm runs.

The rules check that algorithm code cannot silently bypass the
Aggarwal–Vitter cost accounting:

* **R1** — no access to private ``Disk``/``MemoryAccountant`` internals
  outside ``em/`` and ``obs/``;
* **R2** — no ``peek``/``uncounted()``/uncounted ``to_numpy`` escape
  hatches in algorithm code;
* **R3** — record comparisons must reach the comparison counter on some
  call path (or every resolved caller must);
* **R4** — no unseeded / global-state RNG in the package, ``scripts/``
  or ``benchmarks/``;
* **R5** — leases are provably released on all paths, across functions;
* **R6** — hot-path record ops route through the kernel backend;
* **R7** — shard code never touches another shard's state.

The shard protocol, the solver registry and phase labels are not
linted: they are declared (``repro.shard.worker.PROTOCOL``), tested
(``tests/test_budgets.py``) and checked at runtime (``Disk.phase``).

Run it with ``repro lint [--json] [--rule R2 ...] [--diff REF]
[--baseline FILE] [--no-cache]``; silence an intentional exception with
a same-line ``# emlint: disable=Rn`` comment (see ``docs/LINTING.md``
for the catalog and the suppression policy).  ``SYNTAX`` findings are
never suppressable.
"""

from .cache import AnalysisCache, ENGINE_VERSION, default_cache_path
from .callgraph import CallGraph, CallStats
from .dataflow import DataflowFacts, compute_facts
from .engine import (
    ALGORITHM_SUBSYSTEMS,
    EM_LAYER_SUBSYSTEMS,
    LintRule,
    ModuleContext,
    all_rules,
    get_rules,
    lint_file,
    lint_source,
    register,
)
from .findings import LintFinding
from .project import ModuleSummary, ProjectIndex, summarize_module
from .runner import (
    LintReport,
    baseline_delta,
    default_lint_paths,
    default_root,
    git_changed_files,
    iter_python_files,
    lint_paths,
)

__all__ = [
    "AnalysisCache",
    "CallGraph",
    "CallStats",
    "DataflowFacts",
    "ENGINE_VERSION",
    "LintFinding",
    "LintRule",
    "LintReport",
    "ModuleContext",
    "ModuleSummary",
    "ProjectIndex",
    "ALGORITHM_SUBSYSTEMS",
    "EM_LAYER_SUBSYSTEMS",
    "all_rules",
    "baseline_delta",
    "compute_facts",
    "default_cache_path",
    "default_lint_paths",
    "default_root",
    "get_rules",
    "git_changed_files",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "summarize_module",
]
