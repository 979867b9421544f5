"""Content-addressed on-disk result cache.

Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the sha256 of
the canonical payload of one shard of one sweep point (see
:meth:`SweepJob.point_key`; the whole point is shard ``(0, 1)``).  The
two-character fan-out keeps directories small on large sweeps.  Writes
are atomic (tempfile + ``os.replace``) so a crashed or concurrent run
never leaves a half-written entry; unreadable or corrupted entries are
discarded and treated as misses.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Dict, Optional, Union

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


class ResultCache:
    """JSON result store keyed by content hash."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Stored payload for ``key``, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            return None
        if not isinstance(payload, dict):
            self._discard(path)
            return None
        return payload

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Atomically persist ``payload`` under ``key``.

        The temp name carries a uuid, not just the pid: the multi-host
        work queue shares one cache across machines, where pids collide
        (two containerised workers are both pid 1) and a pid-only temp
        file could be written by two processes at once.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    def discard(self, key: str) -> None:
        """Forget ``key`` if present (used by fresh-run queue submits)."""
        self._discard(self.path_for(key))

    def discard_many(self, keys) -> None:
        """Forget every key in ``keys``.

        A loop here; the remote result store overrides this with one
        batched round trip, which is why the fresh-run submitter calls
        it instead of looping over :meth:`discard` itself.
        """
        for key in keys:
            self.discard(key)

    def __contains__(self, key: str) -> bool:
        """Membership agrees with :meth:`get`: a corrupt or non-dict
        entry that ``get`` would discard and report as a miss is not
        *in* the cache (and is discarded here too), so ``key in cache``
        can never promise a payload that ``get(key)`` then fails to
        deliver."""
        return self.get(key) is not None

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.root.glob("*/*.json")):
            self._discard(path)
            removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
