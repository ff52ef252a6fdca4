"""Repository-level lint driver: discovery, reports, JSON.

:func:`lint_paths` is the whole pipeline:

1. **discover** the file set (default: the ``repro`` package source plus
   the repo's ``scripts/`` and ``benchmarks/`` trees, so rules like R4
   also cover experiment drivers);
2. **lint each module** — parse it and run the selected rules over its
   AST.  Every rule judges one module alone, and every run lints every
   file from its current source: nothing is carried over between runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .engine import get_rules, lint_source
from .findings import LintFinding

__all__ = [
    "LintReport",
    "lint_paths",
    "iter_python_files",
    "default_root",
    "default_lint_paths",
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
        return "\n".join([*lines, summary] if lines else [summary])

    def to_dict(self) -> dict:
        """Machine-readable form (the ``--json`` payload)."""
        return {
            "files": self.files,
            "rules": self.rules,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1) + "\n"


def lint_paths(
    paths: Iterable[Path | str] | None = None,
    rule_ids: Iterable[str] | None = None,
    root: Path | None = None,
) -> LintReport:
    """Lint files/directories against the selected rules.

    ``paths`` defaults to :func:`default_lint_paths`; findings report
    paths relative to ``root`` (default: the directory containing the
    package, so paths read ``repro/...``; files outside it are relative
    to the repo root, e.g. ``scripts/...``).
    """
    if root is None:
        root = default_root()
    if paths is None:
        paths = default_lint_paths(root)
    selected = get_rules(rule_ids)
    files = list(iter_python_files(Path(p) for p in paths))
    report = LintReport(rules=[r.rule_id for r in selected], files=len(files))
    for file in files:
        active, suppressed = lint_source(
            file.read_text(), _relpath(file, root), selected
        )
        report.findings.extend(active)
        report.suppressed.extend(suppressed)
    report.findings.sort()
    report.suppressed.sort()
    return report
