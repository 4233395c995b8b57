"""Supervised execution of journaled job cells over a heartbeat worker pool.

:func:`run_jobs` is the one execution engine both sweep runners share.  It
takes a list of :class:`JobCell` (key + label + picklable payload), a
module-level worker function, and a :class:`~repro.jobs.policy.RetryPolicy`,
and returns every cell's outcome — results for completed cells, structured
:class:`~repro.errors.FailedCell` records for cells that exhausted their
crash budget or overran their timeout class.

Supervision model (``jobs > 1``):

* every worker process runs a daemon *heartbeat thread* stamping a shared
  clock slot; the supervisor declares a worker **lost** when its process
  vanishes (SIGKILL, OOM, segfault) or its heartbeat goes stale past
  ``policy.heartbeat_timeout_s`` (a SIGSTOPped or wedged worker);
* a lost worker's leased cell is returned to the pending queue (after the
  policy's deterministic capped exponential backoff) and *work-stolen* by
  whichever worker goes idle first — the supervisor also respawns a
  replacement into the vacant slot so the pool keeps its width;
* a cell that keeps killing workers past ``policy.max_attempts`` total
  executions is declared poisoned and recorded as a ``FailedCell`` instead
  of aborting the sweep;
* each worker leases at most one cell at a time, so the lease table is
  exact: a crash can only ever lose (and re-run) the cells that were
  actually in flight;
* cells may carry an *affinity* (any hashable: cells with equal values
  share per-process state, such as a compiled image).  A free worker
  leases the first ready cell of its own affinity (the one it last ran),
  else the first ready cell whose affinity no other worker holds, else the
  first ready cell, so it never idles while a cell is ready.  A respawned
  worker starts with no affinity; cells without one keep FIFO order;
* each worker reports over its own result pipe, so a worker killed while
  writing can tear only its own pipe, never block the others' results;
* a worker whose supervisor dies without a shutdown (SIGKILL, OOM) exits
  at its next heartbeat, when it finds itself re-parented.

Errors a cell *raises* are deterministic and are never retried: the
``contain`` predicate decides per error whether it becomes a ``FailedCell``
(the explore runner contains library errors) or propagates and fails the
sweep loudly (the verify harness propagates everything).

SIGINT/SIGTERM trigger a **graceful drain**: dispatch stops, in-flight
cells get ``policy.drain_grace_s`` to finish (their results are journaled),
anything still running is leased back (its journal state stays ``running``,
so replay re-queues it), the journal is committed, and the outcome returns
``interrupted=True`` so callers can print the resume command.

``jobs == 1`` — or any environment that cannot start worker processes —
runs the identical cell pipeline serially in-process (no heartbeats; a
KeyboardInterrupt drains in the same journal-consistent way).

Resuming is part of the same call: given the run's
:class:`~repro.jobs.journal.Replay`, every cell the journal recorded
``done`` goes to ``on_result`` as ``decode(payload)`` before any cell
runs, and is neither executed nor journaled again.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import (FailedCell, JobError, ReproError, SimulationTimeout,
                      WorkerCrashed)
from .journal import Journal, Replay
from .policy import RetryPolicy

#: How long one receive poll blocks before the liveness sweep runs again.
_POLL_S = 0.05


class _PoolUnavailable(Exception):
    """Worker processes cannot be created; fall back to serial execution."""


@dataclass(frozen=True)
class JobCell:
    """One schedulable unit of a sweep: a key, a label, a payload.

    ``affinity`` (any hashable, or ``None``) marks cells that share
    per-process state: the supervisor keeps them on the worker that ran
    one of them while other cells are ready elsewhere.
    """

    key: str
    label: str
    payload: Any
    affinity: Any = None


@dataclass
class CellError:
    """Wire-format of an exception a cell raised inside a worker."""

    type_name: str
    message: str
    context: dict
    is_repro: bool
    traceback: str = ""
    #: The original exception where it survived the process boundary.
    exception: Optional[BaseException] = None

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellError":
        context = exc.context() if hasattr(exc, "context") else {}
        return cls(type_name=type(exc).__name__, message=str(exc),
                   context=dict(context), is_repro=isinstance(exc, ReproError),
                   traceback=traceback.format_exc(), exception=exc)

    def encode(self) -> dict:
        """Picklable form for the result pipe (exception best-effort)."""
        try:
            pickled = pickle.dumps(self.exception)
        except Exception:
            pickled = None
        return {"type_name": self.type_name, "message": self.message,
                "context": self.context, "is_repro": self.is_repro,
                "traceback": self.traceback, "pickled": pickled}

    @classmethod
    def decode(cls, data: dict) -> "CellError":
        exception = None
        if data.get("pickled") is not None:
            try:
                exception = pickle.loads(data["pickled"])
            except Exception:
                exception = None
        return cls(type_name=data["type_name"], message=data["message"],
                   context=data["context"], is_repro=data["is_repro"],
                   traceback=data.get("traceback", ""), exception=exception)

    def raise_(self) -> None:
        """Re-raise the original exception (reconstructed when possible)."""
        if self.exception is not None:
            raise self.exception
        raise JobError(f"worker raised {self.type_name}: {self.message}\n"
                       f"{self.traceback}")

    def failed_cell(self, cell: JobCell, attempts: int = 1) -> FailedCell:
        return FailedCell(key=cell.key, label=cell.label,
                          error=self.type_name, message=self.message,
                          attempts=attempts, context=dict(self.context))


@dataclass
class JobsOutcome:
    """Everything :func:`run_jobs` produced, keyed by cell key."""

    results: dict[str, Any] = field(default_factory=dict)
    failures: list[FailedCell] = field(default_factory=list)
    #: True after a graceful SIGINT/SIGTERM drain; unfinished cells stay
    #: re-runnable from the journal.
    interrupted: bool = False
    #: Cells actually executed to completion here (done or failed); cells
    #: replayed from the journal are in ``results`` but not counted.
    executed: int = 0
    #: Workers declared lost (crashes, missed heartbeats, timeouts).
    lost_workers: int = 0


def default_crash_failure(cell: JobCell, attempts: int) -> FailedCell:
    """The structured record of a cell that kept killing its workers."""
    exc = WorkerCrashed(
        f"{cell.label}: worker process died {attempts} times executing "
        f"this cell", cell_key=cell.key, attempts=attempts)
    return FailedCell.from_exception(cell.key, cell.label, exc,
                                     attempts=attempts)


def _timeout_failure(cell: JobCell, attempts: int,
                     policy: RetryPolicy) -> FailedCell:
    timeout = policy.timeout
    exc = SimulationTimeout(
        f"{cell.label}: cell exceeded its {policy.timeout_class!r} "
        f"wall-clock budget of {timeout.max_wall_s:g} s",
        kind="wall_clock", limit=timeout.max_wall_s,
        max_cycles=timeout.max_cycles, max_wall_s=timeout.max_wall_s)
    return FailedCell.from_exception(cell.key, cell.label, exc,
                                     attempts=attempts)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _worker_main(slot: int, task_queue, result_conn, heartbeats,
                 interval_s: float, worker_fn, worker_init,
                 init_args: tuple, supervisor: int) -> None:
    """One pool worker: heartbeat thread + lease-execute-report loop."""
    # The supervisor owns shutdown: workers must survive the terminal's
    # SIGINT (sent to the whole foreground process group) so in-flight
    # cells can finish during a graceful drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            if os.getppid() != supervisor:
                # The supervisor died without shutting the pool down
                # (SIGKILL, OOM): nothing can lease or collect work any
                # more, and the ignored SIGTERM would keep this process.
                os._exit(1)
            heartbeats[slot] = time.monotonic()
            stop.wait(interval_s)

    threading.Thread(target=beat, daemon=True).start()
    if worker_init is not None:
        try:
            worker_init(*init_args)
        except BaseException as exc:
            result_conn.send(("init_error",
                              CellError.from_exception(exc).encode()))
            return
    while True:
        item = task_queue.get()
        if item is None:
            break
        try:
            value = worker_fn(item[0])
        except Exception as exc:
            result_conn.send(("error", CellError.from_exception(exc).encode()))
        else:
            result_conn.send(("ok", value))
    stop.set()


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------

class _Slot:
    """One worker slot: process handle plus its exact lease."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.task_queue = None
        self.result_conn = None
        self.lease: Optional[tuple[JobCell, int]] = None  # (cell, attempt)
        self.lease_started = 0.0
        #: Affinity of the last cell this worker process was leased.
        self.affinity: Any = None


class _Supervisor:
    def __init__(self, cells, worker_fn, *, jobs, policy, journal,
                 worker_init, init_args, contain, crash_failure, encode,
                 on_result):
        self.cells = list(cells)
        self.worker_fn = worker_fn
        self.jobs = jobs
        self.policy = policy
        self.journal: Optional[Journal] = journal
        self.worker_init = worker_init
        self.init_args = init_args
        self.contain = contain
        self.crash_failure = crash_failure or default_crash_failure
        self.encode = encode or (lambda value: value)
        self.on_result = on_result
        self.outcome = JobsOutcome()
        #: (cell, attempt, not_before) ready for dispatch, FIFO.
        self.pending: list[tuple[JobCell, int, float]] = [
            (cell, 1, 0.0) for cell in self.cells]
        self.terminal: set[str] = set()
        self.draining = False

    def replay(self, replay: Replay, decode) -> None:
        """Deliver the cells ``replay`` records done (a ``None`` payload
        counts as not done); they leave the queue unexecuted."""
        for cell in self.cells:
            payload = replay.done.get(cell.key)
            if payload is not None:
                value = decode(payload) if decode is not None else payload
                self.terminal.add(cell.key)
                self.outcome.results[cell.key] = value
                if self.on_result is not None:
                    self.on_result(cell, value)
        self.pending = [entry for entry in self.pending
                        if entry[0].key not in self.terminal]

    # Journal helpers --------------------------------------------------

    def _journal_cell(self, key: str, state: str, attempt: int,
                      worker: Optional[int] = None,
                      payload: Optional[Any] = None) -> None:
        if self.journal is not None:
            self.journal.cell(key, state, attempt, worker=worker,
                              payload=payload)

    def _commit(self) -> None:
        if self.journal is not None:
            self.journal.commit()

    # Terminal transitions ---------------------------------------------

    def _complete(self, cell: JobCell, attempt: int, value: Any) -> None:
        if cell.key in self.terminal:
            return  # duplicate delivery after an at-least-once re-run
        self.terminal.add(cell.key)
        self.outcome.results[cell.key] = value
        self.outcome.executed += 1
        self._journal_cell(cell.key, "done", attempt,
                           payload=self.encode(value))
        if self.on_result is not None:
            self.on_result(cell, value)

    def _fail(self, failure: FailedCell) -> None:
        if failure.key in self.terminal:
            return
        self.terminal.add(failure.key)
        self.outcome.failures.append(failure)
        self.outcome.executed += 1
        self._journal_cell(failure.key, "failed", failure.attempts,
                           payload=failure.to_dict())

    def _outstanding(self) -> int:
        return len(self.cells) - len(self.terminal)

    # Serial path ------------------------------------------------------

    def run_serial(self) -> JobsOutcome:
        previous_term = _install_sigterm_as_interrupt()
        try:
            if self.worker_init is not None:
                self.worker_init(*self.init_args)
            for cell, _, _ in self.pending:
                self._journal_cell(cell.key, "running", 1)
                try:
                    value = self.worker_fn(cell.payload)
                except KeyboardInterrupt:
                    self.outcome.interrupted = True
                    break
                except Exception as exc:
                    error = CellError.from_exception(exc)
                    if self.contain is not None and self.contain(error):
                        self._fail(error.failed_cell(cell))
                        continue
                    self._commit()
                    raise
                self._complete(cell, 1, value)
        finally:
            self._commit()
            _restore_sigterm(previous_term)
        return self.outcome

    # Parallel path ----------------------------------------------------

    def run_parallel(self) -> JobsOutcome:
        # Only *pool creation* may fall back to the serial path; anything
        # the workers raise later must propagate (or be contained) exactly
        # like a serial failure.
        try:
            import multiprocessing
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platform-dependent
                context = multiprocessing.get_context()
            width = min(self.jobs, len(self.pending))
            self.context = context
            self.heartbeats = context.Array("d", width, lock=False)
            self.slots = [_Slot(index) for index in range(width)]
            for slot in self.slots:
                self._spawn(slot)
        except (ImportError, OSError) as exc:  # pragma: no cover
            for slot in getattr(self, "slots", []):
                if slot.process is not None and slot.process.is_alive():
                    slot.process.kill()
            raise _PoolUnavailable from exc
        previous = _install_drain_handlers(self._request_drain)
        drain_deadline: Optional[float] = None
        try:
            while self._outstanding():
                now = time.monotonic()
                if self.draining:
                    if drain_deadline is None:
                        drain_deadline = now + self.policy.drain_grace_s
                    if not any(slot.lease for slot in self.slots):
                        break  # nothing in flight; pending cells lease back
                    if now >= drain_deadline:
                        break  # grace expired; in-flight cells lease back
                else:
                    self._dispatch(now)
                self._receive()
                self._check_liveness(time.monotonic())
        finally:
            self.outcome.interrupted = self.outcome.interrupted \
                or self.draining
            _restore_drain_handlers(previous)
            self._shutdown()
        return self.outcome

    def _spawn(self, slot: _Slot) -> None:
        slot.task_queue = self.context.SimpleQueue()
        slot.result_conn, writer = self.context.Pipe(duplex=False)
        self.heartbeats[slot.index] = time.monotonic()
        slot.process = self.context.Process(
            target=_worker_main,
            args=(slot.index, slot.task_queue, writer,
                  self.heartbeats, self.policy.heartbeat_interval_s,
                  self.worker_fn, self.worker_init, self.init_args,
                  # Taken before the fork: a worker reading os.getppid()
                  # itself would see its new parent had this supervisor
                  # died before the worker's first line.
                  os.getpid()),
            daemon=True)
        slot.process.start()
        writer.close()  # the worker holds the only write end: EOF on death

    def _request_drain(self, signum, frame) -> None:
        if self.draining:
            raise KeyboardInterrupt  # second signal: stop insisting
        self.draining = True

    def _dispatch(self, now: float) -> None:
        for slot in self.slots:
            if slot.lease is not None:
                continue
            ready = self._choose(slot, now)
            if ready is None:
                return
            self.pending.remove(ready)
            cell, attempt, _ = ready
            slot.lease = (cell, attempt)
            slot.lease_started = now
            slot.affinity = cell.affinity
            self._journal_cell(cell.key, "running", attempt,
                               worker=slot.index)
            slot.task_queue.put((cell.payload,))  # None means shut down

    def _choose(self, slot: _Slot,
                now: float) -> Optional[tuple[JobCell, int, float]]:
        """The pending entry ``slot`` leases next (``None``: none is ready).

        In order: the first ready cell of the slot's own affinity; the first
        ready cell whose affinity no other slot holds (no affinity counts as
        unheld); the first ready cell.
        """
        own = slot.affinity
        held = [other.affinity for other in self.slots
                if other is not slot and other.affinity is not None]
        first = unheld = None
        for entry in self.pending:
            if entry[2] > now:
                continue
            affinity = entry[0].affinity
            if own is not None and affinity == own:
                return entry
            if first is None:
                first = entry
            if unheld is None and affinity not in held:
                if own is None:
                    return entry  # no own-affinity cell can come first
                unheld = entry
        return unheld or first

    def _receive(self) -> None:
        from multiprocessing.connection import wait
        slots = {slot.result_conn: slot for slot in self.slots
                 if slot.result_conn is not None}
        for conn in wait(list(slots), timeout=_POLL_S):
            slot = slots[conn]
            messages = []
            try:
                while conn.poll():
                    messages.append(conn.recv())
            except (EOFError, OSError):
                # The worker died; the liveness sweep declares it lost.
                conn.close()
                slot.result_conn = None
            # Handled outside the try: an OSError a cell or worker_init
            # raised must reach the caller, not pass for a dead worker.
            for message in messages:
                self._handle(slot, message)

    def _handle(self, slot: _Slot, message: tuple) -> None:
        kind, data = message
        if kind == "init_error":
            self._commit()
            CellError.decode(data).raise_()
        # A worker holds one lease and answers only for it.
        cell, attempt = slot.lease
        slot.lease = None
        if kind == "ok":
            self._complete(cell, attempt, data)
        elif kind == "error":
            error = CellError.decode(data)
            if self.contain is not None and self.contain(error):
                self._fail(error.failed_cell(cell, attempts=attempt))
            else:
                self._commit()
                error.raise_()

    def _check_liveness(self, now: float) -> None:
        timeout = self.policy.timeout.max_wall_s
        for slot in self.slots:
            if slot.lease is None:
                continue
            alive = slot.process is not None and slot.process.is_alive()
            stale = (now - self.heartbeats[slot.index]
                     > self.policy.heartbeat_timeout_s)
            overrun = (timeout is not None
                       and now - slot.lease_started > timeout)
            if alive and not stale and not overrun:
                continue
            cell, attempt = slot.lease
            slot.lease = None
            self.outcome.lost_workers += 1
            self._journal_cell(cell.key, "lost", attempt, worker=slot.index)
            self._kill(slot)
            if overrun:
                self._fail(_timeout_failure(cell, attempt, self.policy))
            elif attempt >= self.policy.max_attempts:
                self._fail(self.crash_failure(cell, attempt))
            else:
                # Lease the cell back: the next idle worker steals it after
                # the deterministic backoff.
                self.pending.append(
                    (cell, attempt + 1,
                     now + self.policy.backoff_s(attempt + 1)))
            if not self.draining and self._outstanding():
                self._spawn(slot)

    def _kill(self, slot: _Slot) -> None:
        if slot.result_conn is not None:
            slot.result_conn.close()  # drops any reply of the lost lease
            slot.result_conn = None
        process = slot.process
        slot.process = None
        # The process and its per-process state are gone: a respawned
        # worker has no claim on the lost cell's affinity.
        slot.affinity = None
        if process is None:
            return
        if process.is_alive():
            process.kill()
        process.join(timeout=2.0)

    def _shutdown(self) -> None:
        for slot in self.slots:
            if slot.process is not None and slot.process.is_alive():
                if self.draining or slot.lease is not None:
                    # Drain/abort: in-flight work is leased back, not waited.
                    self._kill(slot)
                    continue
                try:
                    slot.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for slot in self.slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=1.0)
        for slot in self.slots:
            if slot.result_conn is not None:
                slot.result_conn.close()
        self._commit()


# Signal plumbing ------------------------------------------------------

def _install_drain_handlers(handler) -> Optional[dict]:
    if threading.current_thread() is not threading.main_thread():
        return None
    try:
        previous = {signal.SIGINT: signal.signal(signal.SIGINT, handler),
                    signal.SIGTERM: signal.signal(signal.SIGTERM, handler)}
    except ValueError:  # pragma: no cover - embedded interpreter
        return None
    return previous


def _restore_drain_handlers(previous: Optional[dict]) -> None:
    if previous is None:
        return
    for signum, old in previous.items():
        signal.signal(signum, old)


def _install_sigterm_as_interrupt():
    """Serial mode: let SIGTERM drain exactly like Ctrl-C."""
    if threading.current_thread() is not threading.main_thread():
        return None

    def raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    try:
        return signal.signal(signal.SIGTERM, raise_interrupt)
    except ValueError:  # pragma: no cover - embedded interpreter
        return None


def _restore_sigterm(previous) -> None:
    if previous is not None:
        signal.signal(signal.SIGTERM, previous)


def run_jobs(cells, worker_fn, *, jobs: int = 1,
             policy: Optional[RetryPolicy] = None,
             journal: Optional[Journal] = None,
             worker_init: Optional[Callable] = None,
             init_args: tuple = (),
             contain: Optional[Callable[[CellError], bool]] = None,
             crash_failure: Optional[Callable[[JobCell, int], FailedCell]]
             = None,
             encode: Optional[Callable[[Any], Any]] = None,
             on_result: Optional[Callable[[JobCell, Any], None]] = None,
             replay: Optional[Replay] = None,
             decode: Optional[Callable[[Any], Any]] = None
             ) -> JobsOutcome:
    """Execute every cell under the policy; see the module docstring.

    ``worker_fn`` must be a module-level callable of one payload (workers
    resolve the *current* binding under fork, which is how the containment
    tests plant crashing workers).  ``contain`` decides which raised errors
    become :class:`FailedCell` records (``None`` propagates everything);
    ``encode`` maps a result value to its JSON journal payload and
    ``decode`` maps such a payload back; ``on_result`` observes the cells
    ``replay`` records done first, in cell order, then completions in
    completion order.
    """
    if jobs < 1:
        raise JobError("jobs must be >= 1")
    supervisor = _Supervisor(
        cells, worker_fn, jobs=jobs, policy=policy or RetryPolicy(),
        journal=journal, worker_init=worker_init, init_args=init_args,
        contain=contain, crash_failure=crash_failure, encode=encode,
        on_result=on_result)
    if replay is not None:
        supervisor.replay(replay, decode)
    if jobs > 1 and supervisor.pending:
        try:
            return supervisor.run_parallel()
        except _PoolUnavailable:  # pragma: no cover - restricted env
            pass  # fall through to the identical serial pipeline
    return supervisor.run_serial()


__all__ = ["CellError", "JobCell", "JobsOutcome", "default_crash_failure",
           "run_jobs"]
