"""emlint — EM-model conformance linter for the reproduction.

Static layer of the correctness-analysis suite (the dynamic layer is
the em sanitizer, ``Machine(sanitize=True)`` / ``EM_SANITIZE=1``).
Every rule judges one module from its own AST, so a module's findings
depend on that module alone and are served from a content-addressed
cache (:mod:`repro.lint.cache`) on warm runs.

The rules check that algorithm code cannot silently bypass the
Aggarwal–Vitter cost accounting:

* **R1** — no access to private ``Disk``/``MemoryAccountant`` internals
  outside ``em/`` and ``obs/``;
* **R2** — no ``peek``/``uncounted()``/uncounted ``to_numpy`` escape
  hatches in algorithm code;
* **R3** — record comparisons must be charged to the comparison counter
  by the same function;
* **R4** — no unseeded / global-state RNG in the package, ``scripts/``
  or ``benchmarks/``;
* **R5** — leases are released on all paths by the code that owns them;
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
    "ENGINE_VERSION",
    "LintFinding",
    "LintRule",
    "LintReport",
    "ModuleContext",
    "ALGORITHM_SUBSYSTEMS",
    "EM_LAYER_SUBSYSTEMS",
    "all_rules",
    "baseline_delta",
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
]
