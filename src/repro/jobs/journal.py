"""Append-only JSONL write-ahead journal of sweep cell state transitions.

One journal file records the life of one sweep run: a ``run`` header, then
one ``cell`` record per state transition::

    {"type": "run", "run_id": ..., "kind": ..., "cells": N, "version": 1}
    {"type": "cell", "key": K, "state": "running", "attempt": 1, "worker": 0}
    {"type": "cell", "key": K, "state": "done", "attempt": 1, "payload": {...}}
    {"type": "cell", "key": K, "state": "failed", "attempt": 2, "payload": {...}}
    {"type": "cell", "key": K, "state": "lost", "attempt": 1, "worker": 0}
    {"type": "resume", "run_id": ...}

``done`` payloads carry the cell's full result record; ``failed`` payloads a
:meth:`~repro.errors.FailedCell.to_dict`.  A ``lost`` record marks a worker
declared dead (missed heartbeats, or the process vanished) while leasing the
cell — replay treats the cell as pending again.

Durability model: every appended line is *flushed* to the OS immediately
(a SIGKILL of the writer loses nothing already appended), and the file is
*fsync'd* in batches — at most every :attr:`Journal.sync_interval_s` and
always on :meth:`Journal.commit`/:meth:`Journal.close` — so a power cut
loses at most one sync window of transitions, which replay simply re-queues.

Replay is torn-tail tolerant: a record truncated mid-byte (torn by a crash
during the final write) is dropped and its cell falls back to the previous
recorded state, i.e. it re-executes.  Undecodable *interior* lines are
skipped with a warning rather than poisoning the whole journal — losing one
transition re-runs one cell, which is always sound.
"""

from __future__ import annotations

import io
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

#: Bump when the record schema changes incompatibly.
JOURNAL_VERSION = 1

#: Terminal cell states; anything else leaves the cell pending on replay.
TERMINAL_STATES = ("done", "failed")


class Journal:
    """Append-only writer for one run's journal file."""

    def __init__(self, path, sync_interval_s: float = 0.05):
        self.path = Path(path)
        self.sync_interval_s = sync_interval_s
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[io.TextIOWrapper] = open(
            self.path, "a", encoding="utf-8")
        self._last_sync = time.monotonic()
        self._unsynced = 0

    def append(self, record: dict) -> None:
        """Append one record (flushed to the OS; fsync batched)."""
        if self._handle is None:
            raise ValueError(f"journal {self.path} is closed")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        self._unsynced += 1
        if time.monotonic() - self._last_sync >= self.sync_interval_s:
            self.commit()

    # Convenience appenders --------------------------------------------

    def run_header(self, run_id: str, kind: str, cells: int,
                   resumed: bool = False) -> None:
        record = {"type": "resume" if resumed else "run", "run_id": run_id,
                  "kind": kind, "cells": cells, "version": JOURNAL_VERSION}
        self.append(record)
        self.commit()

    def cell(self, key: str, state: str, attempt: int,
             worker: Optional[int] = None,
             payload: Optional[Any] = None) -> None:
        record: dict = {"type": "cell", "key": key, "state": state,
                        "attempt": attempt}
        if worker is not None:
            record["worker"] = worker
        if payload is not None:
            record["payload"] = payload
        self.append(record)

    # Durability -------------------------------------------------------

    def commit(self) -> None:
        """Force the batched fsync (no-op when nothing is pending)."""
        if self._handle is None or not self._unsynced:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._unsynced = 0
        self._last_sync = time.monotonic()

    def close(self) -> None:
        if self._handle is None:
            return
        self.commit()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Replay:
    """The recovered state of a journal: what finished, what is pending.

    ``done`` maps cell keys to their recorded result payloads (these cells
    must *not* re-execute on resume); ``failed`` holds the last structured
    failure per key (resume re-queues them with a fresh retry budget — the
    point of resuming is that the cause was fixed); ``attempts`` counts the
    executions each non-done cell already consumed, for reporting.
    """

    run_id: Optional[str] = None
    kind: Optional[str] = None
    cells: Optional[int] = None
    done: dict[str, Any] = field(default_factory=dict)
    failed: dict[str, dict] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    records: int = 0
    #: True when the final line was truncated mid-record and dropped.
    torn_tail: bool = False


def replay_journal(path) -> Replay:
    """Reconstruct the last known state of every cell from a journal file.

    The final line may be torn (truncated mid-byte by a crash); it is
    dropped and the affected cell simply stays in its previous state.
    Interior lines that fail to parse are skipped with a warning.
    """
    path = Path(path)
    replay = Replay()
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return replay
    lines = raw.split(b"\n")
    # A well-formed journal ends with a newline, leaving a trailing empty
    # chunk; anything else is a torn tail candidate.
    complete, tail = lines[:-1], lines[-1]
    if tail:
        replay.torn_tail = True
    for index, line in enumerate(complete):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            if index == len(complete) - 1:
                replay.torn_tail = True
            else:
                warnings.warn(
                    f"journal {path}: skipping undecodable record on line "
                    f"{index + 1}; the affected cell will re-execute",
                    RuntimeWarning, stacklevel=2)
            continue
        replay.records += 1
        rtype = record.get("type")
        if rtype in ("run", "resume"):
            replay.run_id = record.get("run_id", replay.run_id)
            replay.kind = record.get("kind", replay.kind)
            replay.cells = record.get("cells", replay.cells)
        elif rtype == "cell":
            key = record.get("key")
            state = record.get("state")
            if key is None or state is None:
                continue
            attempt = int(record.get("attempt", 1))
            replay.attempts[key] = max(replay.attempts.get(key, 0), attempt)
            if state == "done":
                replay.done[key] = record.get("payload")
                replay.failed.pop(key, None)
            elif state == "failed":
                replay.failed[key] = record.get("payload") or {}
                replay.done.pop(key, None)
            # "running"/"lost" leave the cell pending.
    return replay


__all__ = ["JOURNAL_VERSION", "Journal", "Replay", "replay_journal"]
