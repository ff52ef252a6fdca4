"""Content-addressed per-module analysis cache.

Parsing ~100 modules and walking their ASTs under every rule dominates a
cold ``repro lint``.  Both products of the per-module stage — the
module-local findings (rules that need only one AST) and the
:class:`~repro.lint.project.ModuleSummary` (the facts the whole-program
stage consumes) — are pure functions of the module *source text* and the
engine itself, so they are cached under ``sha256(source)`` plus an
engine-version salt.  The whole-program stage (call graph, dataflow,
R3/R5) is recomputed from summaries every run: it is global, cheap
relative to parsing, and caching it per-module would be unsound — a
change in one module can flip verdicts in another.

The cache is one JSON document (atomic replace on save) so a crashed or
concurrent run can at worst lose cache hits, never corrupt results, and
``--no-cache`` / a missing or unwritable directory degrade silently to
cold analysis.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .project import SUMMARY_SCHEMA

__all__ = ["AnalysisCache", "ENGINE_VERSION", "default_cache_path"]

#: Bump on any rule/engine change that can alter per-module results.
ENGINE_VERSION = "emlint-2.0"


def default_cache_path(root: Path) -> Path:
    """Cache location for a source root (``<repo>/.emlint-cache``)."""
    return Path(root).parent / ".emlint-cache" / "cache.json"


def content_key(source: str) -> str:
    h = hashlib.sha256()
    h.update(f"{ENGINE_VERSION}:{SUMMARY_SCHEMA}:".encode())
    h.update(source.encode("utf-8", errors="replace"))
    return h.hexdigest()


class AnalysisCache:
    """Load/store per-module analysis results keyed by content hash."""

    def __init__(self, path: Path | None) -> None:
        self.path = Path(path) if path else None
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, dict] = {}
        self._dirty = False
        if self.path is not None and self.path.exists():
            try:
                data = json.loads(self.path.read_text())
                if data.get("engine") == ENGINE_VERSION:
                    self._entries = data.get("entries", {})
            except (OSError, ValueError):
                self._entries = {}

    # ------------------------------------------------------------------
    def get(self, source: str) -> dict | None:
        """Cached ``{"summary": ..., "findings": ...}`` or None."""
        entry = self._entries.get(content_key(source))
        if entry is not None:
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, source: str, payload: dict) -> None:
        self._entries[content_key(source)] = payload
        self._dirty = True

    def save(self, live_sources: list[str] | None = None) -> None:
        """Persist (atomically); keeps only entries for ``live_sources``
        when given, so stale hashes don't accumulate forever."""
        if self.path is None or not self._dirty:
            return
        entries = self._entries
        if live_sources is not None:
            live = {content_key(s) for s in live_sources}
            entries = {k: v for k, v in entries.items() if k in live}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent), suffix=".tmp"
            )
            with os.fdopen(fd, "w") as fh:
                json.dump(
                    {"engine": ENGINE_VERSION, "entries": entries}, fh
                )
            os.replace(tmp, self.path)
        except OSError:
            pass  # caching is best-effort; analysis already succeeded
