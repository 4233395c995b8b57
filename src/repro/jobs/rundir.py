"""Durable run directories: one per sweep, addressed by a deterministic id.

A run directory holds everything needed to resume a killed sweep::

    <runs root>/<run id>/
        meta.json        # kind + the sweep-defining matrix (rebuilds the CLI)
        journal.jsonl    # append-only WAL of cell state transitions

The run id is content-addressed: ``<kind>-<sha256(matrix)[:12]>`` where
``matrix`` is the JSON-canonicalised description of the sweep (kernels,
axes, variants, engine, ...).  Re-running the same sweep therefore lands in
the same directory — and ``--resume RUN_ID`` can find it by id alone.

The runs root resolves, in order: an explicit ``root`` argument, the
``REPRO_RUNS_DIR`` environment variable, then ``~/.cache/repro/runs``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Optional

from ..errors import JobError
from .journal import Journal, Replay, replay_journal

META_NAME = "meta.json"
JOURNAL_NAME = "journal.jsonl"


def default_runs_root() -> Path:
    env = os.environ.get("REPRO_RUNS_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "runs"


def derive_run_id(kind: str, matrix: dict) -> str:
    """Deterministic run id from the sweep-defining matrix description."""
    blob = json.dumps(matrix, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return f"{kind}-{digest[:12]}"


class RunDirectory:
    """One sweep's durable on-disk state (meta + journal)."""

    def __init__(self, run_id: str, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_runs_root()
        self.run_id = run_id
        self.path = self.root / run_id
        self._journal: Optional[Journal] = None

    # Construction -----------------------------------------------------

    @classmethod
    def create(cls, kind: str, matrix: dict, cells: int,
               root: Optional[Path] = None) -> "RunDirectory":
        """Start a *fresh* run: (re)write meta and truncate the journal.

        The id is deterministic, so re-launching the same sweep reuses the
        directory; a fresh start deliberately discards the previous
        journal — resuming instead of restarting is what ``--resume`` is
        for, and the exit message of an interrupted run says so.
        """
        run = cls(derive_run_id(kind, matrix), root=root)
        run.path.mkdir(parents=True, exist_ok=True)
        meta = {"run_id": run.run_id, "kind": kind, "matrix": matrix,
                "cells": cells, "created": time.time(),
                "pid": os.getpid()}
        (run.path / META_NAME).write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        journal_path = run.path / JOURNAL_NAME
        if journal_path.exists():
            journal_path.unlink()
        run.journal().run_header(run.run_id, kind, cells)
        return run

    @classmethod
    def open(cls, run_id: str, root: Optional[Path] = None
             ) -> "RunDirectory":
        """Open an existing run for resumption; raises on unknown ids."""
        run = cls(run_id, root=root)
        if not run.path.is_dir() or not (run.path / META_NAME).exists():
            raise JobError(
                f"unknown run id {run_id!r} under {run.root} "
                f"(set REPRO_RUNS_DIR or --runs-root to the root the "
                f"original sweep used)", run_id=run_id)
        return run

    # Access -----------------------------------------------------------

    @property
    def meta(self) -> dict:
        try:
            return json.loads((self.path / META_NAME).read_text(
                encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise JobError(f"run {self.run_id}: unreadable {META_NAME}: "
                           f"{exc}", run_id=self.run_id) from exc

    @property
    def journal_path(self) -> Path:
        return self.path / JOURNAL_NAME

    def journal(self) -> Journal:
        """The (lazily opened, append-mode) journal of this run."""
        if self._journal is None:
            self._journal = Journal(self.journal_path)
        return self._journal

    def replay(self) -> Replay:
        """Recover the cell states of this run from its journal."""
        return replay_journal(self.journal_path)

    def mark_resumed(self, cells: int) -> None:
        """Append a resume marker so the journal documents the new epoch."""
        self.journal().run_header(self.run_id, str(self.meta.get("kind")),
                                  cells, resumed=True)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None


def list_runs(root: Optional[Path] = None) -> list[dict]:
    """Every run directory under ``root``, newest first."""
    base = Path(root) if root is not None else default_runs_root()
    if not base.is_dir():
        return []
    runs = []
    for entry in base.iterdir():
        meta_path = entry / META_NAME
        if not meta_path.is_file():
            continue
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        meta["mtime"] = max(meta_path.stat().st_mtime,
                            (entry / JOURNAL_NAME).stat().st_mtime
                            if (entry / JOURNAL_NAME).exists() else 0.0)
        runs.append(meta)
    runs.sort(key=lambda meta: meta["mtime"], reverse=True)
    return runs


__all__ = ["JOURNAL_NAME", "META_NAME", "RunDirectory", "default_runs_root",
           "derive_run_id", "list_runs"]
