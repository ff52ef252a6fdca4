"""Repository-level lint driver: discovery, caching, reports, JSON.

:func:`lint_paths` is the whole pipeline:

1. **discover** the file set (default: the ``repro`` package source plus
   the repo's ``scripts/`` and ``benchmarks/`` trees, so rules like R4
   also cover experiment drivers);
2. **per-module stage** — parse each file, run the module-scoped rules,
   and build its :class:`~repro.lint.project.ModuleSummary`; both
   products are served from the content-addressed
   :class:`~repro.lint.cache.AnalysisCache` on a warm run, so an
   unchanged file costs one hash;
3. **whole-program stage** — assemble the
   :class:`~repro.lint.project.ProjectIndex`, resolve the
   :class:`~repro.lint.callgraph.CallGraph`, compute the
   :class:`~repro.lint.dataflow.DataflowFacts`, and run the
   project-scoped rules (R3/R5).  This stage is recomputed every
   run — it is global by construction and cheap next to parsing.

Even when ``paths`` selects a subset of files, the whole-program stage
runs over the *full* default tree (plus the selection) so the
interprocedural verdicts cannot be weakened by narrowing the command
line; only findings for the requested files are reported.

``--diff`` support lives in :func:`git_changed_files` (restrict the
*reported* set to files changed against a git ref) and ``--baseline``
in :func:`baseline_delta` (suppress findings already present in a
stored report).
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .cache import AnalysisCache, default_cache_path
from .callgraph import CallGraph
from .dataflow import compute_facts
from .engine import LintRule, ModuleContext, get_rules
from .findings import LintFinding
from .project import ModuleSummary, ProjectIndex, _module_name, summarize_module

__all__ = [
    "LintReport",
    "lint_paths",
    "iter_python_files",
    "default_root",
    "default_lint_paths",
    "git_changed_files",
    "baseline_delta",
]


def default_root() -> Path:
    """The repository's package source root (``.../src``)."""
    return Path(__file__).resolve().parents[2]


def default_lint_paths(root: Path) -> list[Path]:
    """The default lint set: the package source plus the repository's
    ``scripts/`` and ``benchmarks/`` trees (when present)."""
    paths = [root / "repro"]
    for extra in ("scripts", "benchmarks"):
        p = root.parent / extra
        if p.is_dir():
            paths.append(p)
    return paths


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories,
    sorted for deterministic reports; ``__pycache__`` is skipped."""
    seen: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for file in candidates:
            if "__pycache__" in file.parts or file in seen:
                continue
            seen.add(file)
            yield file


def _relpath(file: Path, root: Path) -> str:
    """Report path for ``file``: relative to ``root`` (``repro/...``),
    else to the repo root (``scripts/...``), else as given."""
    file = file.resolve()
    for base in (root, root.parent):
        try:
            return str(file.relative_to(base))
        except ValueError:
            continue
    return str(file)


@dataclass
class LintReport:
    """The outcome of one lint run over a set of files."""

    findings: list[LintFinding] = field(default_factory=list)
    suppressed: list[LintFinding] = field(default_factory=list)
    files: int = 0
    rules: list[str] = field(default_factory=list)
    #: call-graph resolution accounting (whole-program stage)
    callgraph: dict = field(default_factory=dict)
    #: analysis-cache accounting: {"hits": n, "misses": n}
    cache_stats: dict = field(default_factory=dict)

    @property
    def errors(self) -> list[LintFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding is active."""
        return not self.errors

    def render(self) -> str:
        """Human-readable report."""
        lines = [f.render() for f in self.findings]
        n_err = len(self.errors)
        n_warn = len(self.findings) - n_err
        summary = (
            f"checked {self.files} files against "
            f"{', '.join(self.rules)}: "
            f"{n_err} error(s), {n_warn} warning(s), "
            f"{len(self.suppressed)} suppressed"
        )
        if self.callgraph:
            summary += (
                f" [call graph: {self.callgraph['call_sites']} sites, "
                f"{self.callgraph['resolution_rate']:.1%} resolved; "
                f"cache: {self.cache_stats.get('hits', 0)} hit(s)]"
            )
        return "\n".join([*lines, summary] if lines else [summary])

    def to_dict(self) -> dict:
        """Machine-readable form (the ``--json`` payload)."""
        return {
            "files": self.files,
            "rules": self.rules,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "callgraph": self.callgraph,
            "cache": self.cache_stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1) + "\n"


def _module_stage(
    file: Path,
    rel: str,
    module_rules: list[LintRule],
    cache: AnalysisCache,
) -> tuple[ModuleSummary, list[LintFinding], list[LintFinding], str]:
    """Per-module analysis for one file, cache-backed.

    Returns ``(summary, active, suppressed, source)``; the cached
    payload always covers *every* module rule, so rule selection
    filters the result instead of fragmenting the cache.
    """
    source = file.read_text()
    entry = cache.get(source)
    if entry is not None:
        summary = ModuleSummary.from_dict(entry["summary"])
        active = [LintFinding(**d) for d in entry["active"]]
        suppressed = [LintFinding(**d) for d in entry["suppressed"]]
        return summary, active, suppressed, source

    active, suppressed = [], []
    try:
        ctx = ModuleContext.from_source(source, rel)
    except SyntaxError as exc:
        active = [
            LintFinding(
                path=rel,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="SYNTAX",
                message=f"module does not parse: {exc.msg}",
            )
        ]
        summary = ModuleSummary(
            relpath=rel, module_name=_module_name(rel),
            subsystem="", is_test=False,
        )
    else:
        for rule in module_rules:
            for finding in rule.check(ctx):
                (
                    suppressed if ctx.is_suppressed(finding) else active
                ).append(finding)
        summary = summarize_module(ctx)
    cache.put(
        source,
        {
            "summary": summary.to_dict(),
            "active": [f.to_dict() for f in sorted(active)],
            "suppressed": [f.to_dict() for f in sorted(suppressed)],
        },
    )
    return summary, sorted(active), sorted(suppressed), source


def lint_paths(
    paths: Iterable[Path | str] | None = None,
    rule_ids: Iterable[str] | None = None,
    root: Path | None = None,
    *,
    use_cache: bool = True,
    cache_path: Path | None = None,
    only_paths: Iterable[str] | None = None,
) -> LintReport:
    """Lint files/directories against the selected rules.

    ``paths`` defaults to :func:`default_lint_paths`; findings report
    paths relative to ``root`` (default: the directory containing the
    package, so paths read ``repro/...``; files outside it are relative
    to the repo root, e.g. ``scripts/...``).  ``only_paths`` further
    restricts which files' findings are *reported* (``--diff`` mode) —
    analysis still covers everything.
    """
    if root is None:
        root = default_root()
    requested = paths is not None
    if paths is None:
        paths = default_lint_paths(root)
    all_rule_objs = get_rules(None)
    selected = get_rules(rule_ids)
    selected_ids = {r.rule_id for r in selected} | {"SYNTAX"}
    module_rules = [r for r in all_rule_objs if r.scope == "module"]
    project_rules = [r for r in selected if r.scope == "project"]

    cache = AnalysisCache(
        (cache_path or default_cache_path(root)) if use_cache else None
    )

    # -- per-module stage over the union of the default tree and the
    #    requested files (whole-program verdicts need full context) ----
    requested_files = list(iter_python_files(Path(p) for p in paths))
    analysis_files = list(requested_files)
    if requested:
        in_set = {f.resolve() for f in analysis_files}
        for f in iter_python_files(default_lint_paths(root)):
            if f.resolve() not in in_set:
                analysis_files.append(f)

    report = LintReport(rules=[r.rule_id for r in selected])
    report.files = len(requested_files)
    requested_rel = {_relpath(f, root) for f in requested_files}
    if only_paths is not None:
        # git names files relative to the repo root ("src/repro/..."),
        # findings relative to the lint root ("repro/..."); accept both.
        wanted = set(only_paths)
        keep = set()
        for f in requested_files:
            rel = _relpath(f, root)
            try:
                repo_rel = str(
                    f.resolve().relative_to(root.parent.resolve())
                )
            except ValueError:
                repo_rel = rel
            if rel in wanted or repo_rel in wanted:
                keep.add(rel)
        requested_rel &= keep

    summaries: list[ModuleSummary] = []
    sources: list[str] = []
    for file in analysis_files:
        rel = _relpath(file, root)
        summary, active, suppressed, source = _module_stage(
            file, rel, module_rules, cache
        )
        summaries.append(summary)
        sources.append(source)
        if rel in requested_rel:
            report.findings.extend(
                f for f in active if f.rule in selected_ids
            )
            report.suppressed.extend(
                f for f in suppressed if f.rule in selected_ids
            )

    # -- whole-program stage (never cached) ----------------------------
    project = ProjectIndex(summaries, root=root)
    graph = CallGraph(project)
    report.callgraph = graph.stats.to_dict()
    if project_rules:
        facts = compute_facts(project, graph)
        for rule in project_rules:
            for finding in rule.check_project(facts):
                if finding.path not in requested_rel:
                    continue
                s = project.by_relpath.get(finding.path)
                if s is not None and s.is_suppressed(
                    finding.line, finding.rule
                ):
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)

    cache.save(live_sources=sources)
    report.cache_stats = {"hits": cache.hits, "misses": cache.misses}
    report.findings.sort()
    report.suppressed.sort()
    return report


# ----------------------------------------------------------------------
# --diff / --baseline support
# ----------------------------------------------------------------------
def git_changed_files(ref: str, repo: Path | None = None) -> list[str] | None:
    """Repo-relative paths changed against ``ref`` (committed or not);
    None when git fails (not a repo, unknown ref)."""
    repo = repo or default_root().parent
    try:
        out = subprocess.run(
            ["git", "diff", "--name-only", ref, "--"],
            cwd=str(repo), capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return [line.strip() for line in out.stdout.splitlines() if line.strip()]


def _finding_key(d: dict) -> tuple:
    """Line-insensitive identity for baseline comparison — edits above a
    pre-existing finding must not make it 'new'."""
    return (d["path"], d["rule"], d["message"])


def baseline_delta(report: LintReport, baseline: dict) -> LintReport:
    """A copy of ``report`` keeping only findings *not* present in
    ``baseline`` (a previous ``--json`` payload).  Gate mode for PRs:
    pre-existing debt doesn't fail, new findings do."""
    known = {_finding_key(d) for d in baseline.get("findings", [])}
    out = LintReport(
        findings=[
            f for f in report.findings
            if _finding_key(f.to_dict()) not in known
        ],
        suppressed=list(report.suppressed),
        files=report.files,
        rules=list(report.rules),
        callgraph=dict(report.callgraph),
        cache_stats=dict(report.cache_stats),
    )
    return out
