"""Content-addressed on-disk result cache.

Results are stored as JSON under ``<cache_dir>/<fp[:2]>/<fp>.json`` where
``fp`` is the job's :func:`repro.runtime.jobs.fingerprint`.  Writes are
atomic (tmp file + ``os.replace``) so a run killed mid-sweep never leaves
a truncated entry; corrupt or unreadable entries read as misses and are
recomputed.  Each entry is stamped with :func:`code_hash`, a hash of the
package's sources: an entry another version of the code wrote reads as a
miss, so an edited simulator never gets its predecessor's results back.

The cache is what makes ``--full`` sweeps resumable: every completed
cell is persisted the moment it finishes, so re-running an interrupted
sweep with the same ``--cache-dir`` skips straight to the cells that are
still missing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Optional, Union

__all__ = ["ResultCache", "NullCache", "open_cache", "code_hash", "DEFAULT_CACHE_DIR"]

#: Default cache directory used by the CLI (relative to the CWD).
DEFAULT_CACHE_DIR = ".fancy-cache"

_FORMAT = 1

#: The package whose sources :func:`code_hash` covers.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def code_hash() -> str:
    """SHA-256 (32 hex chars) over every ``.py`` file of the package, by
    relative path and content; computed once per process."""
    h = hashlib.sha256()
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        h.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:32]


class NullCache:
    """Cache stand-in that stores nothing (``--no-cache``)."""

    enabled = False

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def get(self, fingerprint: str) -> Optional[Any]:
        if fingerprint:
            self.misses += 1
        return None

    def put(self, fingerprint: str, payload: Any) -> None:  # pragma: no cover - trivial
        return None


class ResultCache:
    """JSON result cache keyed by content fingerprint."""

    enabled = True

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        #: Stamped on every entry written; entries stamped otherwise miss.
        self.code = code_hash()

    def _path(self, fingerprint: str) -> Path:
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[Any]:
        """Return the cached payload for ``fingerprint`` or None (miss).

        Corrupt / truncated / foreign-format entries, and entries written
        by other code (another :func:`code_hash`), count as misses.
        """
        if not fingerprint:
            return None
        path = self._path(fingerprint)
        try:
            with path.open(encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(entry, dict) or entry.get("format") != _FORMAT \
                or entry.get("fingerprint") != fingerprint \
                or entry.get("code") != self.code:
            self.misses += 1
            return None
        self.hits += 1
        return entry.get("payload")

    def put(self, fingerprint: str, payload: Any) -> None:
        """Persist ``payload`` (must be JSON-serializable) atomically."""
        if not fingerprint:
            return
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": _FORMAT,
            "fingerprint": fingerprint,
            "code": self.code,
            # Cache-entry metadata, excluded from the job fingerprint;
            # sanctioned as an FCY011 taint barrier.
            "saved_at": time.time(),  # fancylint: disable=FCY011 -- cache metadata
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=str(path.parent))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))


def open_cache(directory: Optional[Union[str, Path]]) -> Union[ResultCache, NullCache]:
    """Open a :class:`ResultCache` at ``directory`` (None → no caching)."""
    if directory is None:
        return NullCache()
    return ResultCache(directory)
