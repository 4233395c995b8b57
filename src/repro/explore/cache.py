"""On-disk result cache making repeated exploration sweeps incremental.

The cache is one JSON file mapping :meth:`ExperimentSpec.key` digests to
result records (:meth:`SpecResult.to_record`).  Because the key is a content
hash of (kernel, config, compile options, analysis options, core count), a
sweep that shares design points with an earlier sweep — a refined grid, an
added kernel, a re-run after a crash — only simulates the new points.

The file format is versioned; a cache written by an incompatible version of
the tooling is discarded rather than trusted.  Writes are atomic (temp file
plus ``os.replace``) so a crashed sweep never corrupts previous results.

An *unreadable* cache file (truncated by a power cut, hand-edited, wrong
encoding) does not abort the sweep either: it is moved aside into the
cache's ``quarantine/`` directory with a warning, and the sweep proceeds
from an empty cache.  Only when even the quarantine move fails does the
cache raise :class:`~repro.errors.CacheCorruption`.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Optional

from ..errors import CacheCorruption

try:  # POSIX file locking for the save-time merge; absent e.g. on Windows.
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None


@contextlib.contextmanager
def _save_lock(path: Path):
    """Exclusive advisory lock serialising concurrent ``save()`` merges.

    Writers lock a ``.lock`` sidecar for the read-merge-replace sequence so
    no update can land between the merge's re-read and the atomic replace.
    Readers never need the lock (``os.replace`` keeps every read a complete
    file).  Where ``fcntl`` is unavailable the lock degrades to a no-op and
    the merge still narrows the race to that window.
    """
    if fcntl is None:  # pragma: no cover - platform-dependent
        yield
        return
    handle = open(path, "a+")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

#: Bump when the record format or the simulation semantics change in a way
#: that invalidates stored results.
#: v2: multicore design points run the interleaved co-simulation (arbiter /
#: slot_weights axes) and records carry the interference metrics.
#: v3: WCET options carry ``tdma_core_id`` and TDMA design points use the
#: refined per-core, per-transfer interference bound.
#: v4: co-simulation serves simultaneous memory requests strictly in the
#: arbiter's preference order (a core catching up from behind yields the
#: bus tie instead of keeping a scheduling-slice privilege), which can
#: shift round-robin/priority interference timings by a few cycles.
#: v5: the execution engine joined the spec content hash, so pre-v5 keys
#: no longer address the same design point.
#: v6: WCET options gained the ``analysis`` toggle (abstract-interpretation
#: value analysis); bounds of cached records may differ from pre-v6 runs.
CACHE_VERSION = 6


class ResultCache:
    """A persistent key -> record store for exploration results."""

    def __init__(self, path):
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self._entries: Optional[dict[str, dict]] = None
        self._dirty = False
        #: Keys written by *this* process since the last save; on save these
        #: win over whatever concurrent sweeps persisted in the meantime.
        self._dirty_keys: set[str] = set()
        self._cleared = False

    # ------------------------------------------------------------------
    # Loading and saving
    # ------------------------------------------------------------------

    def _load(self) -> dict[str, dict]:
        if self._entries is None:
            if self.path.exists():
                try:
                    data = json.loads(self.path.read_text(encoding="utf-8"))
                except (OSError, json.JSONDecodeError) as exc:
                    self._quarantine(exc)
                    self._entries = {}
                else:
                    self._entries = self._valid_entries(data)
            else:
                self._entries = {}
        return self._entries

    @staticmethod
    def _valid_entries(data) -> dict[str, dict]:
        """The entry table of a parsed cache file ({} on any mismatch)."""
        if (isinstance(data, dict)
                and data.get("version") == CACHE_VERSION
                and isinstance(data.get("entries"), dict)):
            return data["entries"]
        return {}

    @property
    def quarantine_dir(self) -> Path:
        """Where unreadable cache files are moved for post-mortem."""
        return self.path.parent / "quarantine"

    def _quarantine(self, exc: Exception) -> None:
        """Move the unreadable cache file aside and continue empty.

        The corrupt bytes are preserved under ``quarantine/`` for
        inspection instead of being silently clobbered by the next save.
        Only a failed *move* escalates to :class:`CacheCorruption` — then
        neither trusting nor bypassing the file is safe.
        """
        target = self.quarantine_dir / self.path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = self.quarantine_dir / f"{self.path.name}.{suffix}"
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(self.path, target)
        except OSError as move_exc:
            raise CacheCorruption(
                f"corrupt result cache {self.path} ({exc}) could not be "
                f"quarantined: {move_exc}", path=self.path) from exc
        warnings.warn(
            f"corrupt result cache {self.path} ({exc}); moved to {target} "
            f"and starting from an empty cache", RuntimeWarning,
            stacklevel=3)

    def _reread_disk(self) -> dict[str, dict]:
        """Best-effort fresh read of the on-disk entries for the save merge.

        Unlike :meth:`_load` this never raises: a file another sweep is just
        replacing (or has corrupted) must not lose *our* computed results —
        the merge simply proceeds without the unreadable content.
        """
        if not self.path.exists():
            return {}
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}
        return self._valid_entries(data)

    def save(self) -> None:
        """Atomically persist the cache (no-op if nothing changed).

        Concurrent sweeps may share one cache file: the read-merge-replace
        sequence runs under an exclusive advisory lock, and the re-read
        picks up records persisted by other processes since our
        :meth:`_load`.  Per key the newest record wins — ours for keys this
        process wrote, the disk's for keys it merely loaded.  :meth:`clear`
        skips the merge (an explicit clear must actually empty the file).
        """
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _save_lock(self.path.with_name(self.path.name + ".lock")):
            entries = dict(self._load())
            if not self._cleared:
                disk = self._reread_disk()
                merged = {**entries, **disk}
                for key in self._dirty_keys:
                    if key in entries:
                        merged[key] = entries[key]
                entries = merged
            payload = {"version": CACHE_VERSION,
                       "entries": {key: entries[key]
                                   for key in sorted(entries)}}
            fd, tmp_name = tempfile.mkstemp(dir=str(self.path.parent),
                                            prefix=self.path.name,
                                            suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True, indent=1)
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        self._entries = entries
        self._dirty = False
        self._dirty_keys.clear()
        self._cleared = False

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """Look up one record, counting the hit or miss."""
        record = self._load().get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        self._load()[key] = record
        self._dirty_keys.add(key)
        self._dirty = True

    def clear(self) -> None:
        """Drop every entry — and any quarantined file from past corruption."""
        self._entries = {}
        self._dirty_keys.clear()
        self._cleared = True
        self._dirty = True
        if self.quarantine_dir.is_dir():
            for stale in self.quarantine_dir.iterdir():
                try:
                    stale.unlink()
                except OSError:  # pragma: no cover - racing cleaner
                    pass

    def __len__(self) -> int:
        return len(self._load())

    def __contains__(self, key: str) -> bool:
        return key in self._load()
