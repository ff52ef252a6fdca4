"""Project-wide symbol index: the whole-program layer under emlint v2.

The per-module heuristics of emlint v1 stop at function boundaries — a
charge in the caller could not clear a sink in a pure helper, and a
lease handed across methods was invisible.  This module builds the facts
the interprocedural rules need:

* :func:`summarize_module` — one pass over a module's AST producing a
  :class:`ModuleSummary`: defined functions/classes, import aliases,
  every call site (with a coarse result-use classification), comparison
  sinks, and lease sites.  A summary is a plain JSON-serializable dict
  payload, which is what makes the content-addressed analysis cache
  (:mod:`repro.lint.cache`) possible: the expensive parse+walk runs once
  per content hash.
* :class:`ProjectIndex` — the collection of summaries for every module
  under analysis, with symbol lookup tables (top-level functions,
  classes, methods, a method-name index, and the class hierarchy) that
  the call graph resolver (:mod:`repro.lint.callgraph`) builds on.

Summaries are *syntactic* — no imports are executed, so linting a
broken or hostile module is safe.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from .engine import ModuleContext

__all__ = [
    "SUMMARY_SCHEMA",
    "ModuleSummary",
    "ProjectIndex",
    "summarize_module",
]

#: Bump when the summary layout changes — invalidates every cache entry.
SUMMARY_SCHEMA = 4

#: Call names that register comparisons with the machine.  Shared with
#: the dataflow pass; an *unresolved* call to one of these names is
#: assumed to charge (the em helpers are the only sanctioned spellings).
CHARGE_NAMES = frozenset(
    {"cmp_sort", "cmp_search", "cmp_linear", "cmp_median5",
     "charge_comparisons"}
)

#: Comparison sinks (see rules_cpu for the rationale).
_SINK_FUNCS = frozenset({"sorted", "min", "max"})
_SINK_NP_ATTRS = frozenset(
    {"sort", "argsort", "lexsort", "partition", "argpartition",
     "searchsorted"}
)
_SINK_HELPERS = frozenset({"sort_records"})
_RECORD_MARKERS = frozenset({"composite", "composite_of"})


def _is_np_attr(func: ast.AST) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    )


def _mentions_records(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            f = sub.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in _RECORD_MARKERS:
                return True
        elif isinstance(sub, ast.Subscript):
            sl = sub.slice
            if isinstance(sl, ast.Constant) and sl.value in ("key", "uid"):
                return True
    return False


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_name(relpath: str) -> str:
    """Dotted import path for files under the package source root.

    ``repro/alg/selection.py`` -> ``repro.alg.selection``; files outside
    the package (``scripts/x.py``, tests) get a path-derived name that
    never collides with a real import path.
    """
    parts = list(relpath.replace("\\", "/").split("/"))
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
        return ".".join(parts)
    return "<ext>." + ".".join(parts)


@dataclass
class ModuleSummary:
    """JSON-serializable whole-program facts for one module."""

    relpath: str
    module_name: str
    subsystem: str
    is_test: bool
    #: line -> None (all rules) | list of rule ids — mirrors
    #: ``ModuleContext.suppressions`` in serializable form.
    suppressions: dict = field(default_factory=dict)
    #: local qualname ("f", "C.m", "" = module body) -> def line
    functions: dict = field(default_factory=dict)
    #: class name -> {"bases": [...], "methods": [...], "line": n}
    classes: dict = field(default_factory=dict)
    #: local name -> fully qualified import target
    imports: dict = field(default_factory=dict)
    #: call sites: see :func:`summarize_module` for the record layout
    calls: list = field(default_factory=list)
    #: uncharged-comparison candidate sites (algorithm layer only)
    cmp_sinks: list = field(default_factory=list)
    #: ``.lease(...)`` sites with their disposition classification
    lease_sites: list = field(default_factory=list)
    #: class name -> attrs released/context-managed somewhere in it
    attr_releases: dict = field(default_factory=dict)
    #: local qualname -> param names released on all paths
    releases_params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": SUMMARY_SCHEMA,
            "relpath": self.relpath,
            "module_name": self.module_name,
            "subsystem": self.subsystem,
            "is_test": self.is_test,
            "suppressions": self.suppressions,
            "functions": self.functions,
            "classes": self.classes,
            "imports": self.imports,
            "calls": self.calls,
            "cmp_sinks": self.cmp_sinks,
            "lease_sites": self.lease_sites,
            "attr_releases": self.attr_releases,
            "releases_params": self.releases_params,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModuleSummary":
        d = dict(d)
        d.pop("schema", None)
        return cls(**d)

    # -- suppression lookup (same semantics as ModuleContext) ----------
    def is_suppressed(self, line: int, rule: str) -> bool:
        key = str(line)
        if key not in self.suppressions:
            return False
        rules = self.suppressions[key]
        return rules is None or rule in rules


class _ScopeInfo:
    """Per-function one-pass facts used to classify call-site result use."""

    def __init__(self, fn: ast.AST) -> None:
        self.released_in_finally: set[str] = set()
        self.with_entered: set[str] = set()
        self.returned: set[str] = set()
        self.released_names: set[str] = set()
        self.attr_stores: dict[str, str] = {}  # local name -> self attr
        self.passed_on: dict[str, list] = {}  # local name -> [(line, callee)]
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
                continue  # nested defs keep their own scope facts
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    ce = item.context_expr
                    if isinstance(ce, ast.Name):
                        self.with_entered.add(ce.id)
            elif isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
                self.returned.add(node.value.id)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(value, ast.Name)
                ):
                    self.attr_stores[value.id] = target.attr
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr == "release"
                    and isinstance(f.value, ast.Name)
                ):
                    self.released_names.add(f.value.id)
                else:
                    callee = (
                        f.id if isinstance(f, ast.Name)
                        else getattr(f, "attr", None)
                    )
                    for arg in node.args:
                        if isinstance(arg, ast.Name):
                            self.passed_on.setdefault(arg.id, []).append(
                                (node.lineno, callee)
                            )
        # finally-released: a release inside any Try.finalbody
        for node in ast.walk(fn):
            if not isinstance(node, ast.Try):
                continue
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "release"
                        and isinstance(sub.func.value, ast.Name)
                    ):
                        self.released_in_finally.add(sub.func.value.id)


def _param_names(fn: ast.AST) -> list[str]:
    a = fn.args
    names = [p.arg for p in [*a.posonlyargs, *a.args]]
    return names


def _annotation_name(ann: ast.AST | None) -> str | None:
    """Best-effort class name out of a parameter annotation."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        # `machine: "Machine"` — forward reference string
        return ann.value.strip().strip('"').split(".")[-1] or None
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.Subscript):
        return None
    if isinstance(ann, ast.BinOp):  # `X | None`
        left = _annotation_name(ann.left)
        return left
    return None


def summarize_module(ctx: ModuleContext) -> ModuleSummary:
    """Extract the whole-program summary of one parsed module.

    Call-site records look like::

        {"caller": "C.m", "line": 12, "col": 4,
         "name": "lease",              # terminal callee name
         "chain": "machine.memory",    # dotted base chain, or None
         "kind": "attr" | "name",
         "use": "with"|"assigned"|"attr"|"returned"|"discarded"|"other",
         "var": "x" | None,            # when use == "assigned"
         "attr": "_lease" | None,      # when use == "attr"
         "ann": "Machine" | None}      # receiver's annotated class
    """
    summary = ModuleSummary(
        relpath=ctx.relpath,
        module_name=_module_name(ctx.relpath),
        subsystem=ctx.subsystem,
        is_test=ctx.is_test,
        suppressions={
            str(line): (None if rules is None else sorted(rules))
            for line, rules in ctx.suppressions.items()
        },
    )
    tree = ctx.tree

    # -- imports -------------------------------------------------------
    pkg_parts = summary.module_name.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                summary.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                mod = ".".join(base + (node.module.split(".") if node.module else []))
            else:
                mod = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                summary.imports[alias.asname or alias.name] = (
                    f"{mod}.{alias.name}" if mod else alias.name
                )

    # -- classes / functions ------------------------------------------
    class_of_fn: dict[ast.AST, str | None] = {}

    def _enclosing_class(node: ast.AST) -> str | None:
        for anc in ctx.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc.name
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if _enclosing_class(node) is None and isinstance(
                ctx.parent(node), ast.Module
            ):
                summary.classes[node.name] = {
                    "bases": [
                        b for b in (_dotted(base) for base in node.bases) if b
                    ],
                    "methods": [
                        n.name for n in node.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ],
                    "line": node.lineno,
                }
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls = _enclosing_class(node)
            class_of_fn[node] = cls
            qual = f"{cls}.{node.name}" if cls else node.name
            # nested defs fold into their outermost function's scope for
            # call attribution; only record top-level funcs and methods.
            parent = ctx.parent(node)
            if isinstance(parent, ast.Module) or (
                cls and isinstance(parent, ast.ClassDef)
            ):
                summary.functions[qual] = node.lineno

    def _qualname_of_scope(node: ast.AST) -> str:
        """Local qualname of the outermost enclosing def ("" = module)."""
        scope = None
        for anc in [node, *ctx.ancestors(node)]:
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = anc
        if scope is None:
            return ""
        cls = class_of_fn.get(scope) or _enclosing_class(scope)
        return f"{cls}.{scope.name}" if cls else scope.name

    # -- per-function scope facts & annotation types -------------------
    scope_infos: dict[str, _ScopeInfo] = {}
    ann_types: dict[str, dict[str, str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = class_of_fn.get(node)
        qual = f"{cls}.{node.name}" if cls else node.name
        if qual not in summary.functions:
            continue
        info = _ScopeInfo(node)
        scope_infos[qual] = info
        # annotated parameter types (incl. quoted forward references)
        types: dict[str, str] = {}
        a = node.args
        for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]:
            t = _annotation_name(p.annotation)
            if t:
                types[p.arg] = t
        # locals assigned from a known class constructor: x = Machine(...)
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Call)
                and isinstance(sub.value.func, ast.Name)
            ):
                types.setdefault(sub.targets[0].id, sub.value.func.id)
        ann_types[qual] = types
        # parameters released on all paths (finally or unconditional)
        released = info.released_in_finally | info.with_entered
        params = set(_param_names(node))
        summary.releases_params[qual] = sorted(
            params & (released | info.released_names)
        )

    # -- class attr releases ------------------------------------------
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "release"
                and isinstance(f.value, ast.Attribute)
                and isinstance(f.value.value, ast.Name)
                and f.value.value.id == "self"
            ):
                cls = _enclosing_class_of_stmt(ctx, node)
                if cls:
                    summary.attr_releases.setdefault(cls, [])
                    if f.value.attr not in summary.attr_releases[cls]:
                        summary.attr_releases[cls].append(f.value.attr)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                ce = item.context_expr
                if (
                    isinstance(ce, ast.Attribute)
                    and isinstance(ce.value, ast.Name)
                    and ce.value.id == "self"
                ):
                    cls = _enclosing_class_of_stmt(ctx, node)
                    if cls:
                        summary.attr_releases.setdefault(cls, [])
                        if ce.attr not in summary.attr_releases[cls]:
                            summary.attr_releases[cls].append(ce.attr)

    # -- call sites ----------------------------------------------------
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        caller = _qualname_of_scope(node)
        if isinstance(func, ast.Name):
            name, chain, kind = func.id, None, "name"
        elif isinstance(func, ast.Attribute):
            name, kind = func.attr, "attr"
            chain = _dotted(func.value)
        else:
            continue  # call of a call / subscript — dynamic dispatch
        use, var, attr = _result_use(ctx, node)
        # For assigned results, refine into the same disposition lattice
        # lease sites use, so the whole-program pass can judge calls to
        # lease-*returning* functions without re-walking this module.
        disp = None
        if use == "assigned" and var is not None:
            info = scope_infos.get(caller)
            if info is None:
                disp = "local"
            elif var in info.released_in_finally:
                disp = "finally"
            elif var in info.with_entered:
                disp = "context"
            elif var in info.returned:
                disp = "returned"
            elif var in info.attr_stores:
                disp = "attr"
                attr = info.attr_stores[var]
            elif var in info.passed_on:
                disp = "passed"
            else:
                disp = "local"
        ann = None
        if chain:
            root = chain.split(".")[0]
            ann = ann_types.get(caller, {}).get(root)
        summary.calls.append(
            {
                "caller": caller,
                "line": node.lineno,
                "col": node.col_offset,
                "name": name,
                "chain": chain,
                "kind": kind,
                "use": use,
                "var": var,
                "attr": attr,
                "disp": disp,
                "ann": ann,
            }
        )

    # -- comparison sinks (algorithm layer only) -----------------------
    if ctx.in_algorithm_layer and not ctx.is_test:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                sink = _call_sink(node)
                if sink is not None:
                    summary.cmp_sinks.append(
                        {
                            "caller": _qualname_of_scope(node),
                            "line": node.lineno,
                            "col": node.col_offset,
                            "sink": sink,
                        }
                    )
            elif isinstance(node, ast.Compare):
                if not any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                    for op in node.ops
                ):
                    continue
                operands = [node.left, *node.comparators]
                if any(_mentions_records(o) for o in operands):
                    summary.cmp_sinks.append(
                        {
                            "caller": _qualname_of_scope(node),
                            "line": node.lineno,
                            "col": node.col_offset,
                            "sink": "<compare>",
                        }
                    )

    # -- lease sites ---------------------------------------------------
    if not ctx.is_test:
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "lease"
            ):
                continue
            summary.lease_sites.append(
                _classify_lease_site(ctx, node, _qualname_of_scope(node),
                                     class_of_fn, scope_infos)
            )

    return summary


def _enclosing_class_of_stmt(ctx: ModuleContext, node: ast.AST) -> str | None:
    for anc in ctx.ancestors(node):
        if isinstance(anc, ast.ClassDef):
            return anc.name
    return None


def _call_sink(node: ast.Call) -> str | None:
    """Sink name if this call performs uncharged record comparisons."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in _SINK_HELPERS:
            return func.id
        if func.id in _SINK_FUNCS and any(
            _mentions_records(a) for a in node.args
        ):
            return func.id
        return None
    if _is_np_attr(func) and func.attr in _SINK_NP_ATTRS:
        if any(_mentions_records(a) for a in node.args) or any(
            _mentions_records(kw.value) for kw in node.keywords
        ):
            return f"np.{func.attr}"
        return None
    if isinstance(func, ast.Attribute) and func.attr == "sort":
        if _mentions_records(func.value):
            return ".sort()"
    return None


def _result_use(
    ctx: ModuleContext, node: ast.Call
) -> tuple[str, str | None, str | None]:
    """Coarse classification of what happens to a call's result."""
    parent = ctx.parent(node)
    if isinstance(parent, ast.withitem):
        return "with", None, None
    if isinstance(parent, ast.Return):
        return "returned", None, None
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        target = parent.targets[0]
        if isinstance(target, ast.Name):
            return "assigned", target.id, None
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            return "attr", None, target.attr
        return "other", None, None
    if isinstance(parent, ast.Expr):
        return "discarded", None, None
    return "other", None, None


def _classify_lease_site(
    ctx: ModuleContext,
    node: ast.Call,
    caller: str,
    class_of_fn: dict,
    scope_infos: dict,
) -> dict:
    """Disposition of one ``.lease(...)`` call site.

    dispositions::

        with        — used directly as a context manager
        finally     — local var released in a finally block
        context     — local var entered as a context manager later
        returned    — result (or its local var) escapes via return
        attr        — stored on self/cls (directly or via a local)
        passed      — local var passed onward to another call
        local       — assigned to a local with no protection (FLAG)
        bare        — result discarded on the spot (FLAG)
        other       — any other expression position (FLAG)
    """
    use, var, attr = _result_use(ctx, node)
    cls = None
    for anc in ctx.ancestors(node):
        if isinstance(anc, ast.ClassDef):
            cls = anc.name
            break
    site = {
        "caller": caller,
        "line": node.lineno,
        "col": node.col_offset,
        "class": cls,
        "var": var,
        "attr": attr,
        "passed_to": None,
    }
    if use == "with":
        site["disposition"] = "with"
        return site
    if use == "returned":
        site["disposition"] = "returned"
        return site
    if use == "attr":
        site["disposition"] = "attr"
        return site
    if use == "assigned" and var is not None:
        info = scope_infos.get(caller)
        if info is not None:
            if var in info.released_in_finally:
                site["disposition"] = "finally"
                return site
            if var in info.with_entered:
                site["disposition"] = "context"
                return site
            if var in info.returned:
                site["disposition"] = "returned"
                return site
            if var in info.attr_stores:
                site["disposition"] = "attr"
                site["attr"] = info.attr_stores[var]
                return site
            if var in info.passed_on:
                site["disposition"] = "passed"
                site["passed_to"] = info.passed_on[var][0][1]
                return site
        site["disposition"] = "local"
        return site
    site["disposition"] = "bare" if use == "discarded" else "other"
    return site


class ProjectIndex:
    """Summaries plus symbol lookup tables for one analysis run."""

    def __init__(self, summaries: Iterable[ModuleSummary], root=None) -> None:
        self.root = root
        self.modules: dict[str, ModuleSummary] = {}
        for s in summaries:
            self.modules[s.module_name] = s
        self.by_relpath: dict[str, ModuleSummary] = {
            s.relpath: s for s in self.modules.values()
        }
        # fq symbol tables
        self.functions: dict[str, ModuleSummary] = {}
        self.classes: dict[str, dict] = {}
        self.method_index: dict[str, list[str]] = {}
        self.class_index: dict[str, list[str]] = {}
        for mod, s in self.modules.items():
            for qual in s.functions:
                self.functions[f"{mod}.{qual}"] = s
            for cname, cinfo in s.classes.items():
                fq = f"{mod}.{cname}"
                self.classes[fq] = cinfo
                self.class_index.setdefault(cname, []).append(fq)
                for m in cinfo["methods"]:
                    self.method_index.setdefault(m, []).append(f"{fq}.{m}")

    # -- class hierarchy ----------------------------------------------
    def class_relatives(self, fq_class: str) -> set[str]:
        """The class plus its project-resolvable ancestors/descendants."""
        out = {fq_class}
        changed = True
        while changed:
            changed = False
            for fq, info in self.classes.items():
                bases = set()
                mod = fq.rsplit(".", 1)[0]
                for b in info["bases"]:
                    bname = b.split(".")[-1]
                    s = self.modules.get(mod)
                    target = None
                    if s and bname in s.classes:
                        target = f"{mod}.{bname}"
                    elif s and bname in s.imports:
                        t = s.imports[bname]
                        if t in self.classes:
                            target = t
                    elif len(self.class_index.get(bname, [])) == 1:
                        target = self.class_index[bname][0]
                    if target:
                        bases.add(target)
                if fq in out and not bases <= out:
                    out |= bases
                    changed = True
                elif bases & out and fq not in out:
                    out.add(fq)
                    changed = True
        return out

    def attr_released(self, module: str, cls: str | None, attr: str) -> bool:
        """Is ``self.<attr>`` released anywhere on the class, an
        ancestor, or a descendant?"""
        if cls is None:
            return False
        for fq in self.class_relatives(f"{module}.{cls}"):
            mod, cname = fq.rsplit(".", 1)
            s = self.modules.get(mod)
            if s and attr in s.attr_releases.get(cname, []):
                return True
        return False
