"""Versioned JSON store keyed by (kind, key), holding the parabolic-type
tables behind wgroup._type_table, which validates each entry it reads;
budgets are checked before it is consulted.
Entries are canonical JSON, written to a temporary file and renamed into
place; an unreadable or truncated entry reads as a miss, so a crash never
leaves an entry that is served.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

CACHE_VERSION = 2


def _safe(s: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", s)


class ResultCache:
    """Directory-backed cache; a None directory disables persistence."""

    def __init__(self, directory: str | Path | None):
        self.dir = Path(directory) if directory else None

    def path_for(self, kind: str, key: str) -> Path | None:
        if self.dir is None:
            return None
        return self.dir / f"v{CACHE_VERSION}" / _safe(kind) / f"{_safe(key)}.json"

    def get(self, kind: str, key: str):
        path = self.path_for(kind, key)
        if path is None:
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):  # missing, unreadable or truncated
            return None

    def put(self, kind: str, key: str, obj) -> None:
        path = self.path_for(kind, key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
