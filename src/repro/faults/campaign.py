"""Seeded fault campaigns: prove the fault models stay inside the bounds.

A campaign sweeps a kernel × core-count matrix.  Every cell first runs
fault-free (the functional and timing baseline), then re-runs under a
:class:`~repro.faults.plan.FaultPlan` generated from the campaign seed with
SEC-DED ECC enabled and bus retries bounded, and finally checks the two
resilience claims the paper's time-predictability argument extends to:

* **functional** — with ECC correcting every main-memory flip and every bus
  error retried within the bound, the faulted run still produces the
  kernel's expected output;
* **timing** — every core's observed cycles stay at or below the
  fault-aware WCET bound (:class:`~repro.wcet.analyzer.WcetOptions` with
  ``bus_retry_limit`` and ``fault_overhead_cycles`` from the plan).

Same seed ⇒ same plans, same fault logs, same outcomes: the report carries
a determinism hash over all cell logs so two runs can be compared byte for
byte (the CI smoke gate and ``repro.verify --faults``).

The heavyweight imports (compiler, CMP, WCET) happen inside the entry
points: :mod:`repro.cmp.system` imports this package for the plan types, so
importing them lazily keeps the package import acyclic.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..errors import FaultInjectionError
from .plan import FaultPlan

#: Default kernel set of a campaign: small, quick kernels covering loop,
#: branchy and call-heavy control flow.
DEFAULT_KERNELS = ("vector_sum", "checksum", "saturate")


@dataclass
class CampaignCell:
    """One kernel × core-count × arbiter cell of a fault campaign."""

    kernel: str
    cores: int
    arbiter: str
    plan_hash: str
    faults_planned: int
    baseline_cycles: list[int] = field(default_factory=list)
    faulted_cycles: list[int] = field(default_factory=list)
    wcet_cycles: list[Optional[int]] = field(default_factory=list)
    outcomes: dict[str, int] = field(default_factory=dict)
    log_hash: str = ""
    outputs_ok: bool = False
    error: Optional[str] = None

    @property
    def name(self) -> str:
        return f"{self.kernel}/{self.cores}core/{self.arbiter}"

    @property
    def violations(self) -> int:
        """Cores whose faulted run exceeded the fault-aware WCET bound."""
        return sum(1 for observed, bound
                   in zip(self.faulted_cycles, self.wcet_cycles)
                   if bound is not None and observed > bound)

    @property
    def ok(self) -> bool:
        return (self.error is None and self.outputs_ok
                and self.violations == 0
                and self.outcomes.get("unrecovered", 0) == 0)

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "cores": self.cores,
            "arbiter": self.arbiter,
            "plan_hash": self.plan_hash,
            "faults_planned": self.faults_planned,
            "baseline_cycles": list(self.baseline_cycles),
            "faulted_cycles": list(self.faulted_cycles),
            "wcet_cycles": list(self.wcet_cycles),
            "outcomes": dict(self.outcomes),
            "log_hash": self.log_hash,
            "outputs_ok": self.outputs_ok,
            "violations": self.violations,
            "error": self.error,
        }


@dataclass
class CampaignReport:
    """All cells of one seeded campaign plus the aggregate verdict."""

    seed: int
    ecc: bool
    bus_retry_limit: int
    cells: list[CampaignCell] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def violations(self) -> list[CampaignCell]:
        return [cell for cell in self.cells if cell.violations]

    def counts(self) -> dict[str, int]:
        """Aggregated fault outcomes over every cell's log."""
        totals: dict[str, int] = {}
        for cell in self.cells:
            for outcome, count in cell.outcomes.items():
                totals[outcome] = totals.get(outcome, 0) + count
        return totals

    def determinism_hash(self) -> str:
        """Hash over all per-cell fault-log hashes, in cell order.

        Two runs of the same campaign (same seed, same matrix) must produce
        the same value — the reproducibility gate of the CI smoke step.
        """
        payload = "|".join(f"{cell.name}:{cell.plan_hash}:{cell.log_hash}"
                           for cell in self.cells)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "schema": "repro.faults/v1",
            "seed": self.seed,
            "ecc": self.ecc,
            "bus_retry_limit": self.bus_retry_limit,
            "cells": [cell.to_dict() for cell in self.cells],
            "counts": self.counts(),
            "violations": sum(cell.violations for cell in self.cells),
            "ok": self.ok,
            "determinism_hash": self.determinism_hash(),
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def table(self) -> str:
        from ..explore.tables import format_table
        headers = ["cell", "faults", "outcomes", "baseline", "faulted",
                   "wcet", "ok"]
        rows = []
        for cell in self.cells:
            outcomes = ", ".join(f"{k}={v}"
                                 for k, v in sorted(cell.outcomes.items()))
            bounds = [b for b in cell.wcet_cycles if b is not None]
            rows.append([
                cell.name, cell.faults_planned, outcomes or "-",
                max(cell.baseline_cycles, default=0),
                max(cell.faulted_cycles, default=0),
                max(bounds, default="-"),
                "yes" if cell.ok else ("ERROR" if cell.error else "NO"),
            ])
        return format_table(headers, rows)

    def summary(self) -> str:
        counts = self.counts()
        lines = [
            f"fault campaign   : seed {self.seed}, {len(self.cells)} cells, "
            f"{self.elapsed_s:.2f} s",
            f"  recovery model : ecc={'on' if self.ecc else 'off'}, "
            f"bus retry limit {self.bus_retry_limit}",
            "  outcomes       : " + (", ".join(
                f"{k}={v}" for k, v in sorted(counts.items())) or "none"),
            f"  determinism    : {self.determinism_hash()}",
        ]
        bad = [cell for cell in self.cells if not cell.ok]
        if bad:
            lines.append(f"  FAILURES       : {len(bad)} cell(s)")
            for cell in bad:
                reason = (cell.error or
                          (f"{cell.violations} WCET violation(s)"
                           if cell.violations else
                           ("output mismatch" if not cell.outputs_ok
                            else "unrecovered faults")))
                lines.append(f"    {cell.name}: {reason}")
        else:
            lines.append("  all cells within fault-aware WCET bounds, "
                         "outputs preserved")
        return "\n".join(lines)


def run_fault_campaign(seed: int = 0,
                       kernels: Sequence[str] = DEFAULT_KERNELS,
                       cores: Sequence[int] = (2, 4),
                       arbiters: Sequence[str] = ("tdma",),
                       memory_flips: int = 3, bus_errors: int = 3,
                       ecc: bool = True, ecc_latency_cycles: int = 3,
                       bus_retry_limit: int = 2,
                       config=None,
                       progress: Optional[Callable[[str], None]] = None
                       ) -> CampaignReport:
    """Run one seeded fault campaign over a kernel × cores × arbiter matrix.

    Every cell derives its own plan from ``seed`` and the cell index, sized
    by the cell's fault-free baseline (flips are scheduled inside the
    baseline makespan so they land during execution).  A cell that raises
    is contained as a cell error — the campaign always completes and
    reports every cell.
    """
    from ..cmp.system import MulticoreSystem
    from ..compiler.passes import compile_and_link
    from ..config import DEFAULT_CONFIG
    from ..errors import ReproError
    from ..wcet.analyzer import analyze_wcet
    from ..workloads.suite import build_kernel, resolve_kernels

    config = config or DEFAULT_CONFIG
    kernels = resolve_kernels(kernels)
    report = CampaignReport(seed=seed, ecc=ecc,
                            bus_retry_limit=bus_retry_limit)
    started = time.perf_counter()
    images: dict[str, tuple] = {}
    index = 0
    for kernel in kernels:
        if kernel not in images:
            built = build_kernel(kernel)
            image, _ = compile_and_link(built.program, config)
            images[kernel] = (image, built.expected_output)
        image, expected = images[kernel]
        for num_cores in cores:
            for arbiter in arbiters:
                if progress is not None:
                    progress(f"{kernel}/{num_cores}core/{arbiter}")
                cell = _run_cell(
                    MulticoreSystem, analyze_wcet, ReproError,
                    image, expected, kernel, num_cores, arbiter, config,
                    seed + index, memory_flips, bus_errors, ecc,
                    ecc_latency_cycles, bus_retry_limit)
                report.cells.append(cell)
                index += 1
    report.elapsed_s = time.perf_counter() - started
    return report


def _run_cell(MulticoreSystem, analyze_wcet, ReproError,
              image, expected, kernel, num_cores, arbiter, config,
              cell_seed, memory_flips, bus_errors, ecc,
              ecc_latency_cycles, bus_retry_limit) -> CampaignCell:
    """One campaign cell: baseline, plan, faulted run, fault-aware bounds."""
    cell = CampaignCell(kernel=kernel, cores=num_cores, arbiter=arbiter,
                        plan_hash="", faults_planned=0)
    try:
        baseline = MulticoreSystem(
            [image] * num_cores, config, arbiter=arbiter).run(analyse=False)
        cell.baseline_cycles = baseline.observed_by_core()
        for core in baseline.cores:
            if core.sim.output != expected:
                raise FaultInjectionError(
                    f"{kernel} baseline output mismatch on core "
                    f"{core.core_id} — cannot attribute fault effects")
        horizon = max(cell.baseline_cycles)
        plan = FaultPlan.generate(
            cell_seed, num_cores, horizon, config.memory.size_bytes,
            memory_flips=memory_flips, bus_errors=bus_errors, ecc=ecc,
            ecc_latency_cycles=ecc_latency_cycles,
            bus_retry_limit=bus_retry_limit)
        cell.plan_hash = plan.content_hash()
        cell.faults_planned = len(plan)
        system = MulticoreSystem([image] * num_cores, config,
                                 arbiter=arbiter, faults=plan)
        # The watchdog turns a fault-induced hang into a structured,
        # contained cell error instead of wedging the whole campaign.
        result = system.run(analyse=False,
                            max_cycles=10 * horizon + 100_000)
        cell.faulted_cycles = result.observed_by_core()
        cell.outcomes = result.fault_log.counts()
        cell.log_hash = result.fault_log.determinism_hash()
        cell.outputs_ok = all(core.sim.output == expected
                              for core in result.cores)
        for core_id in range(num_cores):
            options = system.wcet_options_for_core(
                core_id, bus_retry_limit=plan.bus_retry_limit,
                fault_overhead_cycles=plan.fault_overhead_cycles(core_id))
            cell.wcet_cycles.append(
                None if options is None else
                analyze_wcet(image, config=config,
                             options=options).wcet_cycles)
    except ReproError as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell
