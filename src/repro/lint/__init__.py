"""emlint — EM-model conformance linter for the reproduction.

Static layer of the correctness-analysis suite (the dynamic layer is
the em sanitizer, ``Machine(sanitize=True)`` / ``EM_SANITIZE=1``).
Every rule judges one module from its own AST, and every run checks
every file from its current source.

The rules check that algorithm code cannot silently bypass the
Aggarwal–Vitter cost accounting:

* **R1** — no access to private ``Disk``/``MemoryAccountant`` internals
  outside ``em/`` and ``obs/``;
* **R2** — no ``peek``/``uncounted()``/``to_numpy`` escape hatches in
  algorithm code;
* **R3** — record comparisons must be charged to the comparison counter
  by the same function;
* **R4** — no unseeded / global-state RNG in the package, ``scripts/``
  or ``benchmarks/``;
* **R5** — leases are released on all paths by the code that owns them;
* **R6** — hot-path record ops route through the kernel backend.

The shard protocol, shard isolation, the solver registry and phase
labels are not linted: they are declared
(``repro.shard.worker.PROTOCOL``), made unwritable (the shard pools
hold only the coordinator's endpoints, never a worker), tested
(``tests/test_budgets.py``) and checked at runtime (``Disk.phase``).

Run it with ``repro lint [PATH ...] [--json] [--rule R2 ...]``; silence
an intentional exception with a same-line ``# emlint: disable=Rn``
comment (see ``docs/LINTING.md`` for the catalog and the suppression
policy).  ``SYNTAX`` findings are never suppressable.
"""

from .engine import (
    ALGORITHM_SUBSYSTEMS,
    EM_LAYER_SUBSYSTEMS,
    LintRule,
    ModuleContext,
    all_rules,
    get_rules,
    lint_source,
    register,
)
from .findings import LintFinding
from .runner import (
    LintReport,
    default_lint_paths,
    default_root,
    iter_python_files,
    lint_paths,
)

__all__ = [
    "LintFinding",
    "LintRule",
    "LintReport",
    "ModuleContext",
    "ALGORITHM_SUBSYSTEMS",
    "EM_LAYER_SUBSYSTEMS",
    "all_rules",
    "default_lint_paths",
    "default_root",
    "get_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register",
]
