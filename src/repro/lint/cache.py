"""Content-addressed per-module findings cache.

Parsing ~100 modules and walking their ASTs under every rule dominates a
cold ``repro lint``.  Every rule judges one module from its own AST, so
a module's findings are a pure function of its report path, its
*source text* and the engine itself; they are cached under the sha256
of the three.

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

__all__ = ["AnalysisCache", "ENGINE_VERSION", "default_cache_path"]

#: Bump on any rule/engine change that can alter per-module results.
ENGINE_VERSION = "emlint-3.0"


def default_cache_path(root: Path) -> Path:
    """Cache location for a source root (``<repo>/.emlint-cache``)."""
    return Path(root).parent / ".emlint-cache" / "cache.json"


def content_key(relpath: str, source: str) -> str:
    h = hashlib.sha256()
    h.update(f"{ENGINE_VERSION}:{relpath}:".encode())
    h.update(source.encode("utf-8", errors="replace"))
    return h.hexdigest()


class AnalysisCache:
    """Load/store per-module findings keyed by content hash."""

    def __init__(self, path: Path | None) -> None:
        self.path = Path(path) if path else None
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, dict] = {}
        self._live: set[str] = set()
        self._dirty = False
        if self.path is not None and self.path.exists():
            try:
                data = json.loads(self.path.read_text())
                if data.get("engine") == ENGINE_VERSION:
                    self._entries = data.get("entries", {})
            except (OSError, ValueError):
                self._entries = {}

    # ------------------------------------------------------------------
    def get(self, relpath: str, source: str) -> dict | None:
        """Cached ``{"active": ..., "suppressed": ...}`` or None."""
        key = content_key(relpath, source)
        self._live.add(key)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, relpath: str, source: str, payload: dict) -> None:
        self._entries[content_key(relpath, source)] = payload
        self._dirty = True

    def save(self, prune: bool = False) -> None:
        """Persist (atomically); with ``prune``, keep only the entries
        this run looked up, so stale hashes don't accumulate forever."""
        if self.path is None or not self._dirty:
            return
        entries = self._entries
        if prune:
            entries = {k: v for k, v in entries.items() if k in self._live}
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
