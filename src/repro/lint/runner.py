"""Repository-level lint driver: discovery, caching, reports, JSON.

:func:`lint_paths` is the whole pipeline:

1. **discover** the file set (default: the ``repro`` package source plus
   the repo's ``scripts/`` and ``benchmarks/`` trees, so rules like R4
   also cover experiment drivers);
2. **lint each module** — parse it and run every rule over its AST.
   Every rule judges one module alone, so a file's findings depend on
   that file only and are served from the content-addressed
   :class:`~repro.lint.cache.AnalysisCache` on a warm run: an unchanged
   file costs one hash.

``--diff`` support lives in :func:`git_changed_files` (lint only the
files changed against a git ref) and ``--baseline`` in
:func:`baseline_delta` (suppress findings already present in a stored
report).
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .cache import AnalysisCache, default_cache_path
from .engine import get_rules, lint_source
from .findings import LintFinding

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
            f"{len(self.suppressed)} suppressed "
            f"[cache: {self.cache_stats.get('hits', 0)} hit(s)]"
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
            "cache": self.cache_stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1) + "\n"


def _lint_module(
    file: Path, rel: str, cache: AnalysisCache
) -> tuple[list[LintFinding], list[LintFinding]]:
    """``(active, suppressed)`` for one file under every rule,
    cache-backed; rule selection filters the result instead of
    fragmenting the cache."""
    source = file.read_text()
    entry = cache.get(rel, source)
    if entry is None:
        active, suppressed = lint_source(source, rel)
        entry = {
            "active": [f.to_dict() for f in active],
            "suppressed": [f.to_dict() for f in suppressed],
        }
        cache.put(rel, source, entry)
    return (
        [LintFinding(**d) for d in entry["active"]],
        [LintFinding(**d) for d in entry["suppressed"]],
    )


def _selected(
    files: list[Path], root: Path, only_paths: Iterable[str]
) -> list[Path]:
    """The ``files`` that ``only_paths`` names.  git names files relative
    to the repo root (``src/repro/...``), findings relative to the lint
    root (``repro/...``); both spellings select a file."""
    wanted = set(only_paths)
    keep = []
    for f in files:
        rel = _relpath(f, root)
        try:
            repo_rel = str(f.resolve().relative_to(root.parent.resolve()))
        except ValueError:
            repo_rel = rel
        if rel in wanted or repo_rel in wanted:
            keep.append(f)
    return keep


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
    to the repo root, e.g. ``scripts/...``).  ``only_paths`` restricts
    the run to the files it names (``--diff`` mode).
    """
    if root is None:
        root = default_root()
    full_run = paths is None and only_paths is None
    if paths is None:
        paths = default_lint_paths(root)
    selected = get_rules(rule_ids)
    selected_ids = {r.rule_id for r in selected} | {"SYNTAX"}
    cache = AnalysisCache(
        (cache_path or default_cache_path(root)) if use_cache else None
    )

    files = list(iter_python_files(Path(p) for p in paths))
    if only_paths is not None:
        files = _selected(files, root, only_paths)
    report = LintReport(rules=[r.rule_id for r in selected], files=len(files))
    for file in files:
        active, suppressed = _lint_module(file, _relpath(file, root), cache)
        report.findings.extend(f for f in active if f.rule in selected_ids)
        report.suppressed.extend(
            f for f in suppressed if f.rule in selected_ids
        )

    # a partial run must not evict the other files' entries
    cache.save(prune=full_run)
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
        cache_stats=dict(report.cache_stats),
    )
    return out
