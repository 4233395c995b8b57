"""Tests of the durable job engine (repro.jobs).

Three layers: the journal/run-directory durability model (torn-tail replay,
content-addressed run ids), the supervised execution engine (crash
containment, heartbeat loss, timeout classes, graceful serial fallback),
and crash/recovery end-to-end — a sweep SIGKILLed mid-run must resume from
its journal re-executing only the unfinished cells, with the final report
identical to an uninterrupted run.
"""

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import FailedCell, JobError, SweepInterrupted
from repro.jobs import (
    JobCell,
    Journal,
    RetryPolicy,
    RunDirectory,
    TIMEOUT_CLASSES,
    derive_run_id,
    list_runs,
    replay_journal,
    run_jobs,
)
from repro.jobs.policy import CellTimeout
from repro.jobs.supervisor import _Slot, _Supervisor

SRC = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# Module-level worker functions: forked pool workers resolve these by
# name, so they must live at module scope (closures stay serial-only).
# ----------------------------------------------------------------------

def _square(payload):
    return payload * payload


def _die_if_negative(payload):
    if payload < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return payload * payload


def _raise_if_negative(payload):
    if payload < 0:
        raise ValueError(f"bad payload {payload}")
    return payload * payload


def _missing_file(payload):
    if payload < 0:
        raise FileNotFoundError(f"no input for {payload}")
    return payload * payload


def _init_denied(reason):
    raise PermissionError(reason)


def _sleep_for(payload):
    time.sleep(payload)
    return payload


def _stop_once(payload):
    """SIGSTOP this worker the first time: a wedged (not dead) process."""
    flag, value = payload
    if not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGSTOP)
    return value * value


def _die_while_reporting(payload):
    """Return ``size`` bytes; with a ``delay``, SIGKILL this worker that many
    seconds in, which tends to land while the big result is being written."""
    size, delay = payload
    if delay is not None:
        threading.Timer(delay, os.kill, (os.getpid(), signal.SIGKILL)).start()
    return b"x" * size


def _cells(values, affinity=lambda value: None):
    return [JobCell(key=f"cell/{v}", label=f"cell {v}", payload=v,
                    affinity=affinity(v))
            for v in values]


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.run_header("run-1", "explore", cells=3)
            journal.cell("a", "running", 1, worker=0)
            journal.cell("a", "done", 1, payload={"cycles": 42})
            journal.cell("b", "running", 1, worker=1)
            journal.cell("c", "failed", 2, payload={"error": "X"})
        replay = replay_journal(path)
        assert replay.run_id == "run-1"
        assert replay.kind == "explore"
        assert replay.cells == 3
        assert replay.done == {"a": {"cycles": 42}}
        assert replay.failed == {"c": {"error": "X"}}
        assert not replay.torn_tail
        # b was mid-flight and c failed: neither is done, so both re-run.
        assert "b" not in replay.done and "c" not in replay.done

    def test_torn_tail_truncated_mid_byte_requeues_cell(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.run_header("run-1", "explore", cells=2)
            journal.cell("a", "done", 1, payload={"cycles": 1})
            journal.cell("b", "done", 1, payload={"cycles": 2})
        # Tear the final record mid-byte, as a crash during the last
        # write would: cell b falls back to pending and re-executes.
        raw = path.read_bytes()
        lines = raw.rstrip(b"\n").split(b"\n")
        path.write_bytes(b"\n".join(lines[:-1]) + b"\n" + lines[-1][:15])
        replay = replay_journal(path)
        assert replay.torn_tail
        assert replay.done == {"a": {"cycles": 1}}

    def test_interior_corruption_warns_and_skips(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.run_header("run-1", "explore", cells=2)
            journal.cell("a", "done", 1, payload={"cycles": 1})
            journal.cell("b", "done", 1, payload={"cycles": 2})
        lines = path.read_bytes().rstrip(b"\n").split(b"\n")
        lines[1] = b"\xff\xfe not json"  # corrupt cell a's record
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.warns(RuntimeWarning, match="undecodable record"):
            replay = replay_journal(path)
        assert not replay.torn_tail
        assert replay.done == {"b": {"cycles": 2}}

    def test_missing_journal_is_empty_replay(self, tmp_path):
        replay = replay_journal(tmp_path / "absent.jsonl")
        assert replay.records == 0
        assert replay.done == {}

    def test_sigkill_loses_nothing_flushed(self, tmp_path):
        """Every append is flushed: a killed writer's records all replay."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import os, signal\n"
            "from repro.jobs import Journal\n"
            "journal = Journal(sys.argv[2])\n"
            "journal.run_header('run-k', 'explore', cells=2)\n"
            "journal.cell('a', 'done', 1, payload={'cycles': 7})\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        path = tmp_path / "journal.jsonl"
        proc = subprocess.run([sys.executable, "-c", script,
                               str(SRC), str(path)], timeout=60)
        assert proc.returncode == -signal.SIGKILL
        replay = replay_journal(path)
        assert replay.done == {"a": {"cycles": 7}}


class TestRetryPolicy:
    def test_backoff_deterministic_capped_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
        assert policy.backoff_s(1) == 0.0
        assert policy.backoff_s(2) == pytest.approx(0.1)
        assert policy.backoff_s(3) == pytest.approx(0.2)
        assert policy.backoff_s(4) == pytest.approx(0.4)
        assert policy.backoff_s(5) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(9) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(JobError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(JobError):
            RetryPolicy(heartbeat_timeout_s=0.1, heartbeat_interval_s=0.2)
        with pytest.raises(JobError):
            RetryPolicy(timeout_class="nonsense")

    def test_timeout_classes(self):
        assert RetryPolicy().timeout.max_wall_s is None
        smoke = RetryPolicy(timeout_class="smoke").timeout
        assert smoke.max_wall_s == 60.0
        assert smoke.max_cycles == 20_000_000
        assert set(TIMEOUT_CLASSES) == {"unbounded", "smoke", "standard",
                                        "soak"}


class TestRunDirectory:
    def test_run_id_is_content_addressed(self):
        matrix = {"kernels": ["vector_sum"], "axes": [["cores", [1, 2]]]}
        assert derive_run_id("explore", matrix) == \
            derive_run_id("explore", matrix)
        assert derive_run_id("explore", matrix) != \
            derive_run_id("verify", matrix)
        assert derive_run_id("explore", matrix).startswith("explore-")

    def test_create_open_replay(self, tmp_path):
        matrix = {"kernels": ["vector_sum"]}
        run = RunDirectory.create("explore", matrix, cells=2, root=tmp_path)
        run.journal().cell("a", "done", 1, payload={"cycles": 1})
        run.close()
        reopened = RunDirectory.open(run.run_id, root=tmp_path)
        assert reopened.meta["matrix"] == matrix
        assert reopened.meta["cells"] == 2
        assert reopened.replay().done == {"a": {"cycles": 1}}

    def test_open_unknown_run_raises(self, tmp_path):
        with pytest.raises(JobError, match="unknown run id"):
            RunDirectory.open("explore-000000000000", root=tmp_path)

    def test_fresh_create_truncates_previous_journal(self, tmp_path):
        matrix = {"kernels": ["vector_sum"]}
        first = RunDirectory.create("explore", matrix, cells=1,
                                    root=tmp_path)
        first.journal().cell("a", "done", 1, payload={})
        first.close()
        second = RunDirectory.create("explore", matrix, cells=1,
                                     root=tmp_path)
        second.close()
        assert second.run_id == first.run_id
        assert second.replay().done == {}

    def test_list_runs_newest_first(self, tmp_path):
        one = RunDirectory.create("explore", {"n": 1}, cells=1,
                                  root=tmp_path)
        one.close()
        os.utime(one.path / "meta.json", (1.0, 1.0))
        os.utime(one.journal_path, (1.0, 1.0))
        two = RunDirectory.create("verify", {"n": 2}, cells=1,
                                  root=tmp_path)
        two.close()
        runs = list_runs(tmp_path)
        assert [meta["run_id"] for meta in runs] == [two.run_id, one.run_id]


class TestRunJobsSerial:
    def test_results_and_journal(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        outcome = run_jobs(_cells([1, 2, 3]), _square, journal=journal)
        journal.close()
        assert outcome.results == {"cell/1": 1, "cell/2": 4, "cell/3": 9}
        assert outcome.executed == 3
        assert not outcome.failures and not outcome.interrupted
        replay = replay_journal(tmp_path / "journal.jsonl")
        assert set(replay.done) == {"cell/1", "cell/2", "cell/3"}

    def test_contained_error_becomes_failed_cell(self):
        outcome = run_jobs(_cells([2, -1, 3]), _raise_if_negative,
                           contain=lambda error: True)
        assert set(outcome.results) == {"cell/2", "cell/3"}
        assert len(outcome.failures) == 1
        cell = outcome.failures[0]
        assert isinstance(cell, FailedCell)
        assert cell.error == "ValueError"
        assert cell.key == "cell/-1"

    def test_uncontained_error_propagates(self):
        with pytest.raises(ValueError):
            run_jobs(_cells([2, -1]), _raise_if_negative)

    def test_on_result_sees_completion_order(self):
        seen = []
        run_jobs(_cells([1, 2, 3]), _square,
                 on_result=lambda cell, value: seen.append(value))
        assert seen == [1, 4, 9]


class TestRunJobsResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replayed_cells_are_delivered_not_executed(self, tmp_path, jobs):
        """A cell the replay records done reaches ``on_result`` decoded,
        without running (its payload -1 would raise) or a new journal
        record; every other cell runs."""
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.cell("cell/-1", "done", 1, payload={"square": 1})
            journal.cell("cell/2", "running", 1)  # lost before finishing
        seen = {}
        with Journal(path) as journal:
            outcome = run_jobs(
                _cells([-1, 2, 3]), _raise_if_negative, jobs=jobs,
                journal=journal, replay=replay_journal(path),
                encode=lambda value: {"square": value},
                decode=lambda payload: payload["square"],
                on_result=lambda cell, value: seen.update({cell.key: value}))
        assert outcome.executed == 2
        assert outcome.results == {"cell/-1": 1, "cell/2": 4, "cell/3": 9}
        assert seen == outcome.results
        assert _journal_counts(path, "running") == {"cell/2": 2, "cell/3": 1}
        assert _journal_counts(path, "done") == {"cell/-1": 1, "cell/2": 1,
                                                 "cell/3": 1}
        assert replay_journal(path).done["cell/3"] == {"square": 9}


class TestRunJobsParallel:
    def test_parallel_results_match_serial(self):
        values = list(range(8))
        serial = run_jobs(_cells(values), _square, jobs=1)
        parallel = run_jobs(_cells(values), _square, jobs=3)
        assert parallel.results == serial.results

    def test_uncontained_oserror_from_a_cell_propagates(self):
        """An OSError a cell raises is the cell's own error: it must reach
        the caller, not be taken for a torn result pipe (which left the
        cell unaccounted for and the supervisor polling forever)."""
        with pytest.raises(FileNotFoundError, match="no input for -1"):
            run_jobs(_cells([2, -1, 3]), _missing_file, jobs=2,
                     contain=lambda error: error.type_name == "ValueError")

    def test_oserror_from_worker_init_propagates(self):
        with pytest.raises(PermissionError, match="denied"):
            run_jobs(_cells([1, 2]), _square, jobs=2,
                     worker_init=_init_denied, init_args=("denied",))

    def test_sigkilled_worker_contained_and_pool_survives(self, tmp_path):
        # The crashing cell shares its affinity with two others, and the
        # respawned worker holds no claim on it.
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        journal = Journal(tmp_path / "journal.jsonl")
        outcome = run_jobs(
            _cells([1, -5, 2, 3, 4],
                   affinity=lambda v: {2: None, 4: "b"}.get(v, "a")),
            _die_if_negative, jobs=2, policy=policy, journal=journal)
        journal.close()
        assert outcome.results == {"cell/1": 1, "cell/2": 4, "cell/3": 9,
                                   "cell/4": 16}
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.error == "WorkerCrashed"
        assert failure.attempts == 2
        assert outcome.lost_workers >= 2
        replay = replay_journal(tmp_path / "journal.jsonl")
        assert "cell/-5" in replay.failed
        assert set(replay.done) == {"cell/1", "cell/2", "cell/3", "cell/4"}
        assert _journal_counts(tmp_path / "journal.jsonl", "done") == {
            key: 1 for key in replay.done}

    @pytest.mark.parametrize("delay", [0.0, 0.002, 0.005, 0.01, 0.02, 0.04])
    def test_kill_while_reporting_blocks_no_other_worker(self, monkeypatch,
                                                         delay):
        """A worker killed while writing its result must not stall the
        pool.  With one result queue shared by all workers this hung: the
        supervisor blocked reading the torn message, or the other workers'
        writes waited forever on the lock the dead one held."""
        monkeypatch.setitem(TIMEOUT_CLASSES, "test-stall",
                            CellTimeout("test-stall", max_wall_s=30.0))
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                             timeout_class="test-stall")
        size = 16 << 20
        cells = [JobCell(key=f"cell/{i}", label=f"cell {i}",
                         payload=(size, delay if i == 1 else None))
                 for i in range(4)]
        outcome = run_jobs(cells, _die_while_reporting, jobs=2,
                           policy=policy)
        assert all(len(outcome.results[f"cell/{i}"]) == size
                   for i in (0, 2, 3))
        assert [(f.key, f.error) for f in outcome.failures] in (
            [], [("cell/1", "WorkerCrashed")])

    def test_wedged_worker_declared_lost_and_cell_stolen(self, tmp_path):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0,
                             heartbeat_interval_s=0.05,
                             heartbeat_timeout_s=0.6)
        flag = str(tmp_path / "stopped-once")
        # Only the wedge cell stops its worker: the others' flag exists.
        stopped = tmp_path / "already-stopped"
        stopped.touch()
        cells = [JobCell(key="cell/wedge", label="wedge", payload=(flag, 6),
                         affinity="a")]
        cells += [JobCell(key=f"cell/{v}", label=f"cell {v}",
                          payload=(str(stopped), v), affinity=affinity)
                  for v, affinity in ((2, "a"), (3, "b"), (4, "a"))]
        journal = Journal(tmp_path / "journal.jsonl")
        outcome = run_jobs(cells, _stop_once, jobs=2, policy=policy,
                           journal=journal)
        journal.close()
        assert outcome.results == {"cell/wedge": 36, "cell/2": 4,
                                   "cell/3": 9, "cell/4": 16}
        assert outcome.lost_workers == 1
        assert _journal_counts(tmp_path / "journal.jsonl", "done") == {
            key: 1 for key in outcome.results}
        assert _journal_counts(tmp_path / "journal.jsonl", "lost") == {
            "cell/wedge": 1}

    def test_timeout_class_overrun_is_structured_failure(self, monkeypatch):
        monkeypatch.setitem(TIMEOUT_CLASSES, "test-tiny",
                            CellTimeout("test-tiny", max_wall_s=0.4))
        policy = RetryPolicy(timeout_class="test-tiny",
                             heartbeat_interval_s=0.05,
                             heartbeat_timeout_s=5.0)
        cells = [JobCell(key="cell/slow", label="slow cell", payload=30.0)]
        started = time.monotonic()
        outcome = run_jobs(cells, _sleep_for, jobs=2, policy=policy)
        assert time.monotonic() - started < 10.0
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.error == "SimulationTimeout"
        assert failure.context["kind"] == "wall_clock"
        assert failure.context["max_wall_s"] == 0.4


def _supervisor(cells, *affinities):
    """A supervisor over ``cells`` whose slots hold ``affinities`` (each
    its own group), with no worker processes: enough to drive its lease
    choice by hand."""
    supervisor = _Supervisor(
        cells, _square, jobs=len(affinities), policy=RetryPolicy(),
        journal=None, worker_init=None, init_args=(), contain=None,
        crash_failure=None, encode=None, on_result=None)
    supervisor.slots = [_Slot(index) for index in range(len(affinities))]
    for slot, affinity in zip(supervisor.slots, affinities):
        slot.affinity = slot.group = affinity
    return supervisor


class TestDispatchChoice:
    """Which ready cell a free slot leases (``_Supervisor._choose``)."""

    @staticmethod
    def _grouped(*pairs):
        return [JobCell(key=key, label=key, payload=0, affinity=affinity)
                for key, affinity in pairs]

    def test_prefers_the_slots_own_affinity(self):
        supervisor = _supervisor(
            self._grouped(("c1", "C"), ("b1", "B"), ("a1", "A"),
                          ("b2", "B")), "A", "B")
        assert supervisor._choose(supervisor.slots[0], 0.0)[0].key == "a1"
        assert supervisor._choose(supervisor.slots[1], 0.0)[0].key == "b1"

    def test_otherwise_takes_an_affinity_no_other_slot_holds(self):
        cells = self._grouped(("a1", "A"), ("b1", "B"), ("c1", "C"))
        for own in (None, "D"):
            supervisor = _supervisor(cells, own, "A")
            assert supervisor._choose(supervisor.slots[0],
                                      0.0)[0].key == "b1"
        # A cell without an affinity is never held by anyone.
        supervisor = _supervisor(
            self._grouped(("a1", "A"), ("x", None), ("b1", "B")), None, "A")
        assert supervisor._choose(supervisor.slots[0], 0.0)[0].key == "x"

    def test_steals_rather_than_idles(self):
        supervisor = _supervisor(self._grouped(("a1", "A"), ("a2", "A")),
                                 "B", "A")
        assert supervisor._choose(supervisor.slots[0], 0.0)[0].key == "a1"
        supervisor.slots[0].task_queue = queue.SimpleQueue()
        supervisor.slots[1].task_queue = queue.SimpleQueue()
        supervisor._dispatch(0.0)
        # Both slots leased, and the thief now holds the stolen affinity.
        assert [slot.lease[0].key for slot in supervisor.slots] == ["a1",
                                                                    "a2"]
        assert [slot.affinity for slot in supervisor.slots] == ["A", "A"]
        assert supervisor.pending == []

    def test_moves_on_within_its_group_before_a_new_group(self):
        """A slot done with its affinity takes an unheld affinity of its
        own group, then an unheld group, then an unheld affinity of a group
        another slot holds, and steals only after that."""
        def cells(*pairs):
            return [JobCell(key=key, label=key, payload=0, affinity=key[0],
                            group=group) for key, group in pairs]

        def chosen(pending, own, other):
            supervisor = _supervisor(pending, own[0], other[0])
            for slot, (_, group) in zip(supervisor.slots, (own, other)):
                slot.group = group
            return supervisor._choose(supervisor.slots[0], 0.0)[0].key

        pending = cells(("y1", "H"), ("c1", "G"), ("b1", "G"), ("x1", "K"),
                        ("d1", "G"))
        # c is held by the other slot; b is the first free sibling.
        assert chosen(pending, ("a", "G"), ("c", "G")) == "b1"
        # No free sibling: the first group no other slot holds.
        assert chosen(pending[:2] + pending[3:], ("a", "G"),
                      ("y", "H")) == "c1"
        # Every group held: an affinity no slot holds, before a steal.
        assert chosen(cells(("y1", "H"), ("z1", "H")), ("a", "G"),
                      ("y", "H")) == "z1"
        assert chosen(cells(("y1", "H")), ("a", "G"), ("y", "H")) == "y1"
        # A fresh slot starts a group no other slot holds.
        assert chosen(pending, (None, None), ("c", "G")) == "y1"

    def test_group_defaults_to_the_affinity(self):
        assert JobCell(key="a1", label="a1", payload=0,
                       affinity="A").group == "A"
        assert JobCell(key="x", label="x", payload=0).group is None

    def test_respects_backoff(self):
        supervisor = _supervisor(
            self._grouped(("a1", "A"), ("b1", "B"), ("c1", "C")), "A", None)
        supervisor.pending[0] = (supervisor.pending[0][0], 2, 5.0)
        assert supervisor._choose(supervisor.slots[0], 1.0)[0].key == "b1"
        assert supervisor._choose(supervisor.slots[0], 5.0)[0].key == "a1"
        supervisor.pending = [(cell, 2, 5.0) for cell, _, _
                              in supervisor.pending]
        assert supervisor._choose(supervisor.slots[0], 1.0) is None

    def test_cells_without_affinity_keep_fifo_order(self):
        supervisor = _supervisor(_cells(range(6)), None, None, None)
        order = []
        while supervisor.pending:
            for slot in reversed(supervisor.slots):
                entry = supervisor._choose(slot, 0.0)
                if entry is not None:
                    supervisor.pending.remove(entry)
                    slot.affinity = entry[0].affinity
                    order.append(entry[0].key)
        assert order == [f"cell/{v}" for v in range(6)]

    def test_lost_worker_drops_its_affinity(self):
        cell = JobCell(key="a1", label="a1", payload=0, affinity="A")
        supervisor = _supervisor([cell], "A")
        supervisor.heartbeats = [time.monotonic()]
        supervisor.pending = []
        supervisor.slots[0].lease = (cell, 1)  # its process is gone
        supervisor.draining = True  # no respawn in a unit test
        supervisor._check_liveness(time.monotonic())
        assert supervisor.slots[0].affinity is None
        assert supervisor.slots[0].group is None
        assert [entry[0] for entry in supervisor.pending] == [cell]
        assert supervisor.outcome.lost_workers == 1


def _journal_counts(journal_path, state):
    counts = {}
    for line in journal_path.read_bytes().split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("type") == "cell" and record.get("state") == state:
            counts[record["key"]] = counts.get(record["key"], 0) + 1
    return counts


def _children(pid: int) -> list[int]:
    """Live child processes of ``pid`` (Linux ``/proc``)."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] not in ("Z", "X")


#: Runs a two-worker pool whose cells park, so both workers sit leased.
_PARKED_POOL = """
import time
from repro.jobs import JobCell, run_jobs

def park(payload):
    time.sleep(600)

run_jobs([JobCell(key=str(i), label=str(i), payload=i) for i in range(2)],
         park, jobs=2)
"""


class TestCrashRecovery:
    """End-to-end: SIGKILL a sweep mid-run, resume it from the journal."""

    EXPLORE_ARGS = ["-m", "repro.explore", "--kernels", "vector_sum",
                    "--axis", "method_cache_size="
                    "256,512,1024,2048,4096,8192,16384,32768",
                    "--jobs", "2", "--no-cache", "--no-wcet", "--no-pareto"]

    def _env(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_RUNS_DIR"] = str(tmp_path / "runs")
        return env

    @staticmethod
    def _table_lines(stdout: str) -> list[str]:
        return [line for line in stdout.splitlines() if "vector_sum" in line]

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="lists processes through /proc")
    def test_workers_exit_when_their_supervisor_is_killed(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", _PARKED_POOL],
                                env=self._env(tmp_path), cwd=tmp_path)
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _children(proc.pid)
            assert len(workers) == 2, "the pool never started two workers"
            time.sleep(0.5)  # both workers heartbeat on their leases
            proc.kill()
            proc.wait(timeout=60)
            deadline = time.monotonic() + 10.0
            while any(map(_running, workers)) and \
                    time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers)), \
                "pool workers outlived their SIGKILLed supervisor"
        finally:
            proc.kill()
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)

    def test_sigkill_mid_sweep_resume_matches_uninterrupted(self, tmp_path):
        env = self._env(tmp_path)
        proc = subprocess.Popen([sys.executable, *self.EXPLORE_ARGS],
                                env=env, cwd=tmp_path,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        # Wait until some cells are durably done, then SIGKILL the sweep
        # (no drain, no journal close: the crash case).
        journal_path = None
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if journal_path is None:
                found = list((tmp_path / "runs").glob(
                    "explore-*/journal.jsonl"))
                journal_path = found[0] if found else None
            if journal_path is not None and \
                    len(_journal_counts(journal_path, "done")) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        proc.kill()
        proc.wait(timeout=60)
        assert journal_path is not None, "sweep never created its run dir"
        done_before = _journal_counts(journal_path, "done")
        runs_before = _journal_counts(journal_path, "running")
        assert done_before, "sweep finished before it could be killed"
        run_id = journal_path.parent.name

        resumed = subprocess.run(
            [sys.executable, *self.EXPLORE_ARGS, "--resume", run_id],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        assert f"resuming run {run_id}" in resumed.stdout

        # Done cells were replayed, not re-executed: no new "running"
        # transition for any cell that was already done at the kill.
        runs_after = _journal_counts(journal_path, "running")
        for key in done_before:
            assert runs_after[key] == runs_before[key], \
                f"done cell {key} was re-executed on resume"

        fresh = subprocess.run(
            [sys.executable, *self.EXPLORE_ARGS, "--no-journal"],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=300)
        assert fresh.returncode == 0, fresh.stderr
        # The resumed report is identical to an uninterrupted sweep
        # (elapsed time aside, which the table does not contain).
        assert self._table_lines(resumed.stdout) == \
            self._table_lines(fresh.stdout)

    def test_verify_resume_replays_done_cells(self, tmp_path):
        from repro.verify import (DEFAULT_ARBITERS, DEFAULT_RTOS_SCENARIOS,
                                  DEFAULT_VARIANTS, run_conformance)
        from repro.verify.harness import count_cells

        variants = DEFAULT_VARIANTS[:1]
        arbiters = tuple(a for a in DEFAULT_ARBITERS
                         if a.name in ("single", "tdma2"))
        rtos = DEFAULT_RTOS_SCENARIOS[:2]
        kwargs = dict(kernels=["vector_sum"], variants=variants,
                      arbiters=arbiters, rtos_scenarios=rtos)
        cells = count_cells(["vector_sum"], variants, arbiters, rtos)

        baseline = run_conformance(**kwargs).to_dict()
        run = RunDirectory.create("verify", {"t": "resume"}, cells=cells,
                                  root=tmp_path)
        first = run_conformance(**kwargs, run_dir=run).to_dict()
        run.close()

        # Tear the journal back mid-run: drop the trailing records so the
        # last RTOS cell loses its terminal state, then resume.
        journal_path = run.journal_path
        lines = journal_path.read_bytes().rstrip(b"\n").split(b"\n")
        done_full = _journal_counts(journal_path, "done")
        journal_path.write_bytes(b"\n".join(lines[:-2]) + b"\n")
        done_cut = _journal_counts(journal_path, "done")
        runs_cut = _journal_counts(journal_path, "running")
        assert set(done_full) - set(done_cut) == {f"rtos/{rtos[1].name}"}
        main_cells = [key for key in done_cut
                      if key.startswith(("loops/", "rtos/"))]
        assert main_cells == ["loops/vector_sum", f"rtos/{rtos[0].name}"]

        resumed_dir = RunDirectory.open(run.run_id, root=tmp_path)
        resumed = run_conformance(**kwargs, run_dir=resumed_dir,
                                  resume=True).to_dict()
        resumed_dir.close()
        # Cells done before the cut replay from the journal: no new
        # "running" record; the torn cell runs again.
        runs_after = _journal_counts(journal_path, "running")
        for key in done_cut:
            assert runs_after[key] == runs_cut[key], \
                f"done cell {key} was re-executed on resume"
        assert set(_journal_counts(journal_path, "done")) == set(done_full)
        for report in (baseline, first, resumed):
            report.pop("elapsed_s", None)
            report.get("summary", {}).pop("elapsed_s", None)
        assert first == baseline
        assert resumed == baseline

    def test_interrupt_carries_resume_command(self, tmp_path):
        from repro.explore.runner import ExplorationRunner
        from repro.explore.space import ParameterSpace

        run = RunDirectory.create("explore", {"t": "int"}, cells=1,
                                  root=tmp_path)
        runner = ExplorationRunner(cache=None)
        space = ParameterSpace(["vector_sum"], analyse_wcet=False)

        def interrupt(payload):
            raise KeyboardInterrupt

        import repro.explore.runner as runner_module
        original = runner_module._spec_worker
        runner_module._spec_worker = interrupt
        try:
            with pytest.raises(SweepInterrupted) as excinfo:
                runner.run(space, run_dir=run)
        finally:
            runner_module._spec_worker = original
            run.close()
        assert excinfo.value.run_id == run.run_id
        assert f"--resume {run.run_id}" in excinfo.value.resume_argv
