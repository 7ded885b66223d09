"""File-hash-keyed summary cache for incremental effect runs.

The expensive half of the analysis is per-file extraction
(``ast.parse`` + the ordered body scan); linking and propagation are
cheap.  So the cache persists one :class:`ModuleSummary` per file keyed
by the sha256 of its *content* — a warm run re-hashes every target
(fast), loads summaries for unchanged files without parsing, and
re-extracts only what actually changed.  The cache also records a
fingerprint of the extraction spec (column/field universes, seam
prefixes) and of the extractor's own source: a config change or an
extractor edit invalidates everything, because summaries depend on
both.  ``_CACHE_SCHEMA`` versions only the file layout.

The cache lives at ``<root>/.lint-cache/effects.json`` (gitignored) and
is best-effort throughout: unreadable or stale entries degrade to a
cold extraction, never to an error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from .model import ModuleSummary

__all__ = ["SummaryCache", "cache_path"]

_CACHE_SCHEMA = "repro-effects-cache/2"


def cache_path(root: Path) -> Path:
    return root / ".lint-cache" / "effects.json"


class SummaryCache:
    """Load/store module summaries keyed by content hash."""

    def __init__(self, path: Path, spec_fingerprint: str) -> None:
        self.path = path
        self.spec_fingerprint = spec_fingerprint
        self._entries: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict):
            return
        if raw.get("schema") != _CACHE_SCHEMA:
            return
        if raw.get("spec") != self.spec_fingerprint:
            return
        files = raw.get("files")
        if isinstance(files, dict):
            self._entries = {
                str(k): v for k, v in files.items() if isinstance(v, dict)
            }

    def lookup(self, relpath: str, sha256: str) -> Optional[ModuleSummary]:
        entry = self._entries.get(relpath)
        if entry is None or entry.get("sha256") != sha256:
            self.misses += 1
            return None
        try:
            summary = ModuleSummary.from_json(entry["summary"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def store(self, summary: ModuleSummary) -> None:
        self._entries[summary.relpath] = {
            "sha256": summary.sha256,
            "summary": summary.to_json(),
        }

    def flush(self, live: Mapping[str, ModuleSummary]) -> None:
        """Persist, dropping entries for files no longer targeted."""
        files = {
            relpath: self._entries[relpath]
            for relpath in live
            if relpath in self._entries
        }
        payload = {
            "schema": _CACHE_SCHEMA,
            "spec": self.spec_fingerprint,
            "files": files,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            pass
