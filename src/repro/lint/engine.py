"""The ``emlint`` rule engine.

Rules are :class:`ast.NodeVisitor`-style checkers registered in a global
registry (:func:`register`).  The engine parses each module once into a
:class:`ModuleContext` — source, AST, parent links, subsystem
classification, and per-line suppressions — and every enabled rule walks
that shared context emitting
:class:`~repro.lint.findings.LintFinding` objects.

Suppressions are per line: a trailing comment ``# emlint: disable=R2``
(comma-separate for several rules, omit the ``=...`` to silence every
rule) on the *reported* line silences the finding.  Suppressed findings
are retained separately so the CLI can report how many were waved
through.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .findings import LintFinding

__all__ = [
    "ModuleContext",
    "LintRule",
    "register",
    "all_rules",
    "get_rules",
    "lint_source",
    "lint_file",
    "ALGORITHM_SUBSYSTEMS",
    "EM_LAYER_SUBSYSTEMS",
]

#: Subsystems that hold *algorithm* code: every block transfer and key
#: comparison there must flow through the counted ``em`` APIs.
ALGORITHM_SUBSYSTEMS = frozenset(
    {"alg", "baselines", "service", "apps", "core", "shard"}
)

#: Subsystems that *implement* the model and its observability — they own
#: the private internals and the uncounted escape hatches.
EM_LAYER_SUBSYSTEMS = frozenset({"em", "obs"})

_DISABLE_RE = re.compile(
    r"#\s*emlint:\s*disable(?:=(?P<rules>[A-Za-z0-9_,\s]+))?"
)


def _parse_suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number -> suppressed rule ids (``None`` = every rule).

    Comments are located with :mod:`tokenize` so directives inside string
    literals are ignored.  Falls back to a line-regex scan if the module
    does not tokenize cleanly (the AST parse will report the real error).
    """
    comments: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = [
            (i, line) for i, line in enumerate(source.splitlines(), 1)
            if "#" in line
        ]
    out: dict[int, frozenset[str] | None] = {}
    for line, text in comments:
        m = _DISABLE_RE.search(text)
        if not m:
            continue
        rules = m.group("rules")
        if rules is None:
            out[line] = None
        else:
            ids = frozenset(
                r.strip().upper() for r in rules.split(",") if r.strip()
            )
            prev = out.get(line, frozenset())
            out[line] = None if prev is None else (prev | ids)
    return out


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one module under lint."""

    relpath: str
    source: str
    tree: ast.Module
    #: Package directly under ``repro`` that holds this module
    #: (``"alg"``, ``"em"``, ... — ``""`` for top-level modules like
    #: ``cli.py`` and for files outside the package, e.g. tests).
    subsystem: str
    #: True for files under a ``tests``/``benchmarks`` directory.
    is_test: bool
    suppressions: dict[int, frozenset[str] | None] = field(
        default_factory=dict
    )
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict, repr=False)

    @classmethod
    def from_source(cls, source: str, relpath: str) -> "ModuleContext":
        tree = ast.parse(source, filename=relpath)
        parts = Path(relpath).parts
        subsystem = ""
        if "repro" in parts:
            after = parts[parts.index("repro") + 1 :]
            if len(after) > 1:  # repro/<pkg>/module.py
                subsystem = after[0]
        is_test = any(p in ("tests", "benchmarks") for p in parts) or Path(
            relpath
        ).name.startswith("test_")
        ctx = cls(
            relpath=relpath,
            source=source,
            tree=tree,
            subsystem=subsystem,
            is_test=is_test,
            suppressions=_parse_suppressions(source),
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                ctx._parents[child] = parent
        return ctx

    # -- navigation ----------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (``None`` for the module)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ``node``'s ancestors, innermost first."""
        cur = self._parents.get(node)
        while cur is not None:
            yield cur
            cur = self._parents.get(cur)

    def enclosing_function(self, node: ast.AST) -> ast.AST:
        """Nearest enclosing function scope (the module if none)."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return self.tree

    # -- classification ------------------------------------------------
    @property
    def in_em_layer(self) -> bool:
        """True inside ``em/`` or ``obs/`` — the model's own plumbing."""
        return self.subsystem in EM_LAYER_SUBSYSTEMS

    @property
    def in_algorithm_layer(self) -> bool:
        """True inside a subsystem holding algorithm code."""
        return self.subsystem in ALGORITHM_SUBSYSTEMS

    def is_suppressed(self, finding: LintFinding) -> bool:
        """True when a same-line directive silences this finding.

        ``SYNTAX`` findings are never silenceable: a module that does
        not parse cannot be analyzed by any rule, so waving the parse
        error through would disable the whole gate for that file.
        """
        if finding.rule == "SYNTAX":
            return False
        if finding.line not in self.suppressions:
            return False
        rules = self.suppressions[finding.line]
        return rules is None or finding.rule in rules


class LintRule:
    """Base class for emlint rules.

    A rule implements :meth:`check`, yielding findings for one parsed
    module from that module's AST alone.  Registration happens via the
    :func:`register` decorator, which keys the rule by ``rule_id``.
    """

    rule_id: str = ""
    title: str = ""
    #: One-paragraph explanation of why the rule exists (the LINTING.md
    #: catalog is generated from these).
    rationale: str = ""
    severity: str = "error"

    def check(self, ctx: ModuleContext) -> Iterable[LintFinding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> LintFinding:
        """Build a finding anchored at ``node``."""
        return LintFinding(
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
            severity=self.severity,
        )


_REGISTRY: dict[str, LintRule] = {}


def register(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule (by ``rule_id``) to the registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls()
    return cls


def all_rules() -> list[LintRule]:
    """Every registered rule, sorted by id."""
    _ensure_loaded()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rules(rule_ids: Iterable[str] | None = None) -> list[LintRule]:
    """Resolve ``rule_ids`` (``None`` = all) to rule instances."""
    _ensure_loaded()
    if rule_ids is None:
        return all_rules()
    rules = []
    for rid in rule_ids:
        rid = rid.upper()
        if rid not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise KeyError(f"unknown rule {rid!r}; known rules: {known}")
        rules.append(_REGISTRY[rid])
    return rules


def _ensure_loaded() -> None:
    """Import the rule modules (idempotent) so the registry is filled."""
    from . import (  # noqa: F401
        rules_access,
        rules_cpu,
        rules_kernel,
        rules_lease,
        rules_rng,
        rules_shard,
    )


def lint_source(
    source: str,
    relpath: str,
    rules: Iterable[LintRule] | None = None,
) -> tuple[list[LintFinding], list[LintFinding]]:
    """Lint one module given as source text.

    Returns ``(active, suppressed)``: findings that count against the
    gate, and findings silenced by a same-line ``# emlint: disable``
    directive.  Both lists are sorted by location.  A module that does
    not parse yields one unsuppressable ``SYNTAX`` finding instead of
    aborting the run.
    """
    try:
        ctx = ModuleContext.from_source(source, relpath)
    except SyntaxError as exc:
        return [
            LintFinding(
                path=relpath,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="SYNTAX",
                message=f"module does not parse: {exc.msg}",
            )
        ], []
    rules = all_rules() if rules is None else list(rules)
    active: list[LintFinding] = []
    suppressed: list[LintFinding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            (suppressed if ctx.is_suppressed(finding) else active).append(
                finding
            )
    return sorted(active), sorted(suppressed)


def lint_file(
    path: Path | str,
    rules: Iterable[LintRule] | None = None,
    root: Path | None = None,
) -> tuple[list[LintFinding], list[LintFinding]]:
    """Lint one ``.py`` file; paths in findings are relative to ``root``
    when given (else reported as passed in)."""
    path = Path(path)
    rel = str(path.relative_to(root)) if root else str(path)
    return lint_source(path.read_text(), rel, rules)
