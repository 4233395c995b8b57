"""Durable, resumable sweep execution: journaled jobs with supervision.

Both sweep runners — the design-space explorer (``python -m repro.explore``)
and the conformance harness (``python -m repro.verify``) — execute their
cells through this package.  A sweep becomes a *run*: a durable directory,
an append-only journal of every cell state transition, and a supervised
worker pool that survives crashed, wedged and killed workers.  A killed
sweep resumes with ``--resume RUN_ID``, re-executing only the cells that
never finished.

Module map
----------

:mod:`repro.jobs.journal`
    The append-only JSONL write-ahead journal and its torn-tail-tolerant
    replay.  Records are ``{"type": "run"|"resume"|"cell", ...}``; cell
    records carry ``key``, ``state`` (``running`` → ``done``/``failed``,
    or ``lost`` when a worker died holding the lease), ``attempt``, and a
    full result payload on the terminal states.  Lines are flushed per
    append and fsync'd in batches, so SIGKILL loses nothing and a power
    cut loses at most one sync window (those cells simply re-run).

:mod:`repro.jobs.rundir`
    Run directories under ``$REPRO_RUNS_DIR`` (default
    ``~/.cache/repro/runs``)::

        <runs root>/<run id>/
            meta.json        # kind + sweep matrix: enough to rebuild the CLI
            journal.jsonl    # the write-ahead journal

    Run ids are content-addressed (``<kind>-<sha256(matrix)[:12]>``), so
    the same sweep always lands in the same directory and ``--resume``
    needs nothing but the id.  Both CLIs open a run to resume through
    :func:`~repro.jobs.rundir.open_for_resume` and report a drained sweep
    with :func:`~repro.jobs.rundir.sweep_interrupted`.

:mod:`repro.jobs.policy`
    The declarative :class:`~repro.jobs.policy.RetryPolicy` both runners
    share: total attempts per cell, deterministic capped exponential
    backoff, heartbeat cadence/deadline, graceful-drain grace, and the
    per-cell wall-clock timeout classes (:data:`~repro.jobs.policy.TIMEOUT_CLASSES`).

:mod:`repro.jobs.supervisor`
    :func:`~repro.jobs.supervisor.run_jobs` — the execution engine.
    Workers heartbeat; a free worker leases a cell of its own affinity
    first (cells sharing per-process state, e.g. one compiled image);
    lost workers' leased cells are returned to the queue and work-stolen
    by survivors while a replacement respawns;
    cells that keep killing workers become structured
    :class:`~repro.errors.FailedCell` records once the attempt budget is
    exhausted; SIGINT/SIGTERM drain gracefully with the journal flushed.

:mod:`repro.jobs.cli`
    ``python -m repro.jobs`` — ``list``/``show``/``latest`` over the runs
    root, for finding the run id to resume.

Resume semantics
----------------

Replaying the journal partitions cells into *done* (payload recorded),
*failed* (re-queued with a fresh retry budget: the point of resuming is
that the cause was fixed), and *pending* (anything else, including cells
lost mid-flight).  :func:`~repro.jobs.supervisor.run_jobs` is the one place
a replay is applied: given the run's :class:`~repro.jobs.journal.Replay`
and a ``decode`` that inverts its ``encode``, it hands each done cell to
``on_result`` as ``decode(payload)`` and neither executes nor journals it
again; every other cell runs.  A resumed report is byte-identical (modulo
elapsed time) to one from an uninterrupted run.
"""

from ..errors import FailedCell, JobError, SweepInterrupted
from .journal import JOURNAL_VERSION, Journal, Replay, replay_journal
from .policy import TIMEOUT_CLASSES, CellTimeout, RetryPolicy
from .rundir import (RunDirectory, default_runs_root, derive_run_id,
                     list_runs, open_for_resume, sweep_interrupted)
from .supervisor import (CellError, JobCell, JobsOutcome,
                         default_crash_failure, run_jobs)

__all__ = [
    "CellError", "CellTimeout", "FailedCell", "JOURNAL_VERSION", "JobCell",
    "JobError", "Journal", "JobsOutcome", "Replay", "RetryPolicy",
    "RunDirectory", "SweepInterrupted", "TIMEOUT_CLASSES",
    "default_crash_failure", "default_runs_root", "derive_run_id",
    "list_runs", "open_for_resume", "replay_journal", "run_jobs",
    "sweep_interrupted",
]
