"""Crash-recovery smoke test on a real verify sweep.

Starts ``python -m repro.verify --jobs 2 --kernels performance --no-rtos``,
SIGKILLs one pool worker once the run's journal holds a few ``done`` cells,
SIGKILLs the supervisor (no drain, no journal close) once a few more are
done, then finds the run by id and resumes it.  It fails if the sweep had
finished before a kill, if the resumed run leaves a cell pending or failed,
or if the resume re-ran a cell that was done at the cut.

Run it from the root of a checkout with ``REPRO_RUNS_DIR`` pointing at an
empty directory::

    REPRO_RUNS_DIR=$(mktemp -d) python tests/chaos_smoke.py

It writes ``verify-chaos.json`` (the resumed report),
``verify-chaos-run.json`` (``repro.jobs show --json``) and
``verify-chaos-journal.jsonl`` (the journal) to the working directory.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SWEEP = ["-m", "repro.verify", "--quiet", "--jobs", "2",
         "--kernels", "performance", "--no-rtos"]
#: ``done`` records to wait for before the worker kill, and after it
#: before the supervisor kill.
DONE_BEFORE_WORKER_KILL = 4
DONE_BEFORE_SUPERVISOR_KILL = 8
TIMEOUT_S = 120.0


def journal_counts(journal: Path, state: str) -> dict[str, int]:
    """Cell key -> number of journal records in ``state``."""
    counts: dict[str, int] = {}
    for line in journal.read_bytes().split(b"\n"):
        try:
            record = json.loads(line)
        except ValueError:  # blank, or a torn last line
            continue
        if record.get("type") == "cell" and record.get("state") == state:
            counts[record["key"]] = counts.get(record["key"], 0) + 1
    return counts


def wait_for_done(proc: subprocess.Popen, runs: Path, count: int) -> Path:
    """Poll until the run's journal holds ``count`` done cells; fail if the
    sweep exits first."""
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            sys.exit(f"chaos smoke: the sweep exited ({proc.returncode}) "
                     f"before {count} cells were done")
        journals = list(runs.glob("verify-*/journal.jsonl"))
        if journals and sum(journal_counts(journals[0], "done").values()) \
                >= count:
            return journals[0]
        time.sleep(0.005)
    sys.exit(f"chaos smoke: no {count} done cells within {TIMEOUT_S} s")


def kill_while_running(proc: subprocess.Popen, pid: int, what: str) -> None:
    if proc.poll() is not None:
        sys.exit(f"chaos smoke: the sweep finished before the {what} kill")
    os.kill(pid, signal.SIGKILL)


def run(*args: str, **kwargs) -> subprocess.CompletedProcess:
    result = subprocess.run([sys.executable, *args], **kwargs)
    if result.returncode != 0:
        sys.exit(f"chaos smoke: {' '.join(args)} exited {result.returncode}")
    return result


def main() -> None:
    runs = Path(os.environ["REPRO_RUNS_DIR"])
    os.environ["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen([sys.executable, *SWEEP])
    try:
        journal = wait_for_done(proc, runs, DONE_BEFORE_WORKER_KILL)
        workers = subprocess.run(["pgrep", "-P", str(proc.pid)],
                                 capture_output=True, text=True).stdout.split()
        if not workers:
            sys.exit("chaos smoke: the sweep has no pool worker to kill")
        kill_while_running(proc, int(workers[0]), "worker")
        done = sum(journal_counts(journal, "done").values())
        wait_for_done(proc, runs, done + DONE_BEFORE_SUPERVISOR_KILL)
        kill_while_running(proc, proc.pid, "supervisor")
    finally:
        proc.kill()
        proc.wait()

    run_id = journal.parent.name
    total = json.loads(journal.read_bytes().split(b"\n")[0])["cells"]
    done_before = journal_counts(journal, "done")
    runs_before = journal_counts(journal, "running")
    if len(done_before) >= total:
        sys.exit("chaos smoke: every cell was done before the kill")
    print(f"killed {run_id} with {len(done_before)}/{total} cells done")

    latest = run("-m", "repro.jobs", "latest", "--kind", "verify",
                 capture_output=True, text=True).stdout.strip()
    if latest != run_id:
        sys.exit(f"chaos smoke: latest run is {latest}, not {run_id}")
    run("-m", "repro.verify", "--quiet", "--resume", run_id,
        "--json", "verify-chaos.json")
    shown = run("-m", "repro.jobs", "show", run_id, "--json",
                capture_output=True, text=True).stdout
    Path("verify-chaos-run.json").write_text(shown)
    shutil.copyfile(journal, "verify-chaos-journal.jsonl")
    state = json.loads(shown)
    if state["pending"] != 0 or state["failed"]:
        sys.exit(f"chaos smoke: the resumed run is incomplete: {state}")
    runs_after = journal_counts(journal, "running")
    rerun = sorted(key for key in done_before
                   if runs_after[key] != runs_before[key])
    if rerun:
        sys.exit(f"chaos smoke: the resume re-ran done cells: {rerun}")
    print(f"resumed {run_id}: {total - len(done_before)} cells left to run, "
          f"no done cell re-ran")


if __name__ == "__main__":
    main()
