#!/usr/bin/env python
"""Generate docs/API.md from the package's public surface.

Walks every public module, collects the names exported via ``__all__``,
and emits signatures plus the first paragraph of each docstring.  Run
from the repository root:

    python scripts/gen_api_docs.py [--check]

``--check`` exits non-zero if docs/API.md is out of date (CI guard).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

MODULES = [
    "repro.em.machine",
    "repro.em.disk",
    "repro.em.file",
    "repro.em.streams",
    "repro.em.records",
    "repro.em.comparisons",
    "repro.em.errors",
    "repro.em.wire",
    "repro.em.faults",
    "repro.alg.sort",
    "repro.alg.sampling",
    "repro.alg.distribute",
    "repro.alg.selection",
    "repro.alg.inmemory",
    "repro.alg.multipartition",
    "repro.alg.randomized",
    "repro.alg.partitioned",
    "repro.core.spec",
    "repro.core.memory_splitters",
    "repro.core.intermixed",
    "repro.core.multiselect",
    "repro.core.splitters",
    "repro.core.partitioning",
    "repro.core.reduction",
    "repro.baselines.sort_based",
    "repro.baselines.multipartition_based",
    "repro.baselines.repeated_selection",
    "repro.bounds.formulas",
    "repro.bounds.counting",
    "repro.bounds.table",
    "repro.bounds.probabilistic",
    "repro.bounds.adversary",
    "repro.workloads.generators",
    "repro.workloads.queries",
    "repro.analysis.verify",
    "repro.analysis.fit",
    "repro.analysis.access",
    "repro.analysis.trace",
    "repro.analysis.report",
    "repro.obs.tracer",
    "repro.obs.export",
    "repro.obs.solvers",
    "repro.obs.budget",
    "repro.obs.metrics",
    "repro.obs.recorder",
    "repro.lint.findings",
    "repro.lint.engine",
    "repro.lint.cache",
    "repro.lint.rules_access",
    "repro.lint.rules_cpu",
    "repro.lint.rules_rng",
    "repro.lint.rules_lease",
    "repro.lint.rules_kernel",
    "repro.lint.runner",
    "repro.apps.histogram",
    "repro.apps.load_balance",
    "repro.apps.order_stats",
    "repro.service.index",
    "repro.service.online",
    "repro.service.frontend",
    "repro.service.durability",
    "repro.shard.transport",
    "repro.shard.worker",
    "repro.shard.router",
    "repro.experiments.base",
    "repro.experiments.runner",
    "repro.experiments.report_all",
]

HEADER = """# API reference

Public surface of the ``repro`` package, generated from docstrings by
``python scripts/gen_api_docs.py`` — regenerate after changing any
public signature or docstring.  Everything listed here is importable
from the module shown (most names are also re-exported by the package
``__init__`` one level up).

## Command line

``repro`` (or ``python -m repro``) exposes the package on the shell;
see ``repro <command> --help`` for every flag.

- `repro list` / `repro run` / `repro demo` / `repro bounds` /
  `repro solve` — run experiments and individual algorithms (see
  `repro.cli`).
- `repro report [--quick] [--jobs N] [--check-budgets]` — regenerate
  EXPERIMENTS.md and `benchmarks/out/results.json`; with
  `--check-budgets` it additionally runs the I/O-budget regression gate
  (`repro.obs.budget`) and exits non-zero if any algorithm exceeds its
  committed envelope.
- `repro trace ALGORITHM [--out DIR] [--n N] [--k K] ...` — run one
  registered solver (`repro.obs.solvers`) under the span tracer
  (`repro.obs.tracer`) and write three artifacts: a Chrome trace-event
  JSON loadable at <https://ui.perfetto.dev>, a rendered text tree with
  per-span I/O shares, and the plain-dict span JSON.
- `repro budgets [--check | --write] [--path FILE] [--headroom H]` —
  check every registered solver against `benchmarks/budgets.json`, or
  recalibrate and rewrite the envelopes after an intentional cost
  change.
- `repro lint [PATH ...] [--json] [--rule RULE ...] [--diff REF]
  [--baseline FILE] [--no-cache]` — run the emlint EM-conformance
  rules (`repro.lint`, rules R1–R6, each judging one module from its
  own AST) over the package plus `scripts/` and `benchmarks/`; exits
  non-zero on any active error-severity finding.  `--diff` lints only
  the files changed versus a git ref, `--baseline` reports only
  findings absent from a prior `--json` report, and per-module findings
  are cached in `.emlint-cache/` (see `docs/LINTING.md` for the rule
  catalog and suppression policy).
- `repro sanitize-check [--solver NAME ...]` — arm the runtime
  sanitizer: deliberately fire every trap (use-after-free, double-free,
  uninitialized read, double release, lease leak), then run the
  registered solvers under `Machine(sanitize=True)` with the tracer's
  counter-conservation check.
- `repro serve` / `repro query` — the online partition service
  (`repro.service`): an interactive query loop over stdin, and a
  one-shot coalesced query batch (`--shards W` answers it through `W`
  shard workers, `repro.shard`).
- `repro metrics ALGORITHM [--json] [--out DIR] ...` — run one
  registered solver inside a metrics scope (`repro.obs.metrics`) and a
  flight-recorder scope (`repro.obs.recorder`), then export the
  telemetry three ways: Prometheus text, a JSON payload, and the
  flight-recorder event dump.  `repro serve --durable` dumps the
  flight recorder on any unclean exit (`--flight-dump FILE`), and
  `repro recover --flight-dump FILE` renders such a dump.
"""


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    paragraph: list[str] = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        paragraph.append(line.strip())
    return " ".join(paragraph)


def signature_of(obj) -> str:
    import re

    try:
        sig = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""
    # Strip memory addresses from any default-value reprs.
    return re.sub(r" at 0x[0-9a-f]+", "", sig)


def describe_module(name: str) -> list[str]:
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if not exported:
        return []
    out = [f"## `{name}`", "", first_paragraph(module.__doc__), ""]
    for attr in exported:
        obj = getattr(module, attr)
        if inspect.isclass(obj):
            out.append(f"### class `{attr}{signature_of(obj)}`")
            out.append("")
            out.append(first_paragraph(obj.__doc__))
            methods = [
                (m, fn)
                for m, fn in inspect.getmembers(obj, inspect.isfunction)
                if not m.startswith("_") and fn.__qualname__.startswith(obj.__name__)
            ]
            if methods:
                out.append("")
                for m, fn in methods:
                    out.append(
                        f"- `.{m}{signature_of(fn)}` — {first_paragraph(fn.__doc__)}"
                    )
            out.append("")
        elif inspect.isfunction(obj):
            out.append(f"### `{attr}{signature_of(obj)}`")
            out.append("")
            out.append(first_paragraph(obj.__doc__))
            out.append("")
        else:
            # Constants: repr only stable scalar values (a dict of
            # functions would embed memory addresses).
            if isinstance(obj, (int, float, str, bool)):
                out.append(f"### constant `{attr}` = `{obj!r}`")
            else:
                out.append(f"### constant `{attr}` ({type(obj).__name__})")
            out.append("")
    return out


def generate() -> str:
    chunks = [HEADER]
    for name in MODULES:
        chunks.extend(describe_module(name))
    return "\n".join(chunks).rstrip() + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", default="docs/API.md")
    args = parser.parse_args()
    out = Path(args.out)
    text = generate()
    if args.check:
        if not out.exists() or out.read_text() != text:
            print(f"{out} is out of date; regenerate with scripts/gen_api_docs.py")
            return 1
        print(f"{out} is up to date")
        return 0
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
