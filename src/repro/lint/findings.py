"""Structured lint findings.

A :class:`LintFinding` is one rule violation at one source location.
Findings are plain data — hashable, sortable, JSON-serializable — so the
engine, the CLI renderer, the ``--json`` machine output, and the test
fixtures all share one representation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["LintFinding", "SEVERITIES"]

#: Recognised severities, most severe first.  ``error`` findings fail the
#: lint gate; ``warning`` findings are reported but do not affect the
#: exit status.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class LintFinding:
    """One rule violation.

    Attributes
    ----------
    path:
        Path of the offending file, relative to the repository root.
    line / col:
        1-based line and 0-based column of the offending node.
    rule:
        Rule id (``"R1"`` ... ``"R4"``, ``"R6"``) or ``"SYNTAX"``.
    message:
        Human-readable description of the violation.
    severity:
        ``"error"`` or ``"warning"`` (see :data:`SEVERITIES`).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> dict:
        """Plain JSON-serializable form."""
        return asdict(self)

    def render(self) -> str:
        """One-line ``path:line:col: RULE message`` rendering."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )
