"""Declarative design-space descriptions over the Patmos model.

The paper's central trade-off — average-case throughput versus WCET — depends
on architecture parameters (method-cache size, stack-cache size, TDMA slot
length) and on compilation strategy (single-path versus branching code,
dual- versus single-issue).  A :class:`ParameterSpace` describes a sweep over
any combination of those declaratively; :meth:`ParameterSpace.specs` expands
it into concrete, picklable :class:`ExperimentSpec` objects that the batch
runner executes and the result cache keys.

Axes come in five kinds:

* ``config`` axes set one dotted :class:`~repro.config.PatmosConfig` field,
  e.g. ``method_cache.size_bytes``;
* ``compile`` axes set one :class:`~repro.compiler.passes.CompileOptions`
  field, e.g. ``single_path``;
* ``wcet`` axes set one :class:`~repro.wcet.analyzer.WcetOptions` field,
  e.g. ``method_cache`` (the analysis mode, not the hardware);
* the ``cores`` axis sweeps the number of cores of the multicore system
  (co-simulated against one shared memory);
* the ``arbiter`` axis sweeps the memory arbitration policy
  (``tdma``, ``round_robin``, ``priority``);
* the ``engine`` axis picks the execution engine (``fast`` or
  ``reference``, :data:`repro.sim.ENGINES`); engines are bit-identical by
  the golden equivalence suite, but the engine is still part of the cache
  key so sweeps never mix results;
* the ``slot_cycles`` axis sweeps the TDMA slot length;
* the ``slot_weights`` axis sweeps per-core TDMA slot weights, written as
  colon-separated integers (``1:2:1:1``); the pattern is cycled over the
  core count so it composes with a ``cores`` axis;
* ``rtos`` axes (``taskset_utilisation``, ``taskset_period_spread``,
  ``taskset_priorities``, ``tasks_per_core``, ``task_policy``,
  ``taskset_seed``, ``taskset_bodies``) turn a design point into an RTOS
  task-set point: instead of one bare-metal program per core, each core
  runs a synthesized preemptive task set (:mod:`repro.rtos`) and the
  collected figures include the response-time analysis outcome.  The
  task bodies come from ``taskset_bodies`` (a colon-separated kernel or
  suite list, default the ``rtos`` suite) — the space's kernel entry does
  not select bodies, so build RTOS spaces over a single kernel.

Friendly aliases (``method_cache_size`` for ``method_cache.size_bytes`` and
so on) keep command lines short; see :data:`AXIS_ALIASES`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Iterable, Optional, Sequence

from ..compiler.passes import CompileOptions
from ..config import PatmosConfig
from ..errors import ExplorationError
from ..sim.base import ENGINES
from ..wcet.analyzer import WcetOptions
from ..workloads.suite import resolve_kernels

#: Friendly axis names -> (kind, target).  Dotted names are accepted directly
#: as ``config`` axes and bare CompileOptions field names as ``compile`` axes.
AXIS_ALIASES: dict[str, tuple[str, Optional[str]]] = {
    "method_cache_size": ("config", "method_cache.size_bytes"),
    "method_cache_blocks": ("config", "method_cache.num_blocks"),
    "method_cache_replacement": ("config", "method_cache.replacement"),
    "stack_cache_size": ("config", "stack_cache.size_bytes"),
    "static_cache_size": ("config", "static_cache.size_bytes"),
    "data_cache_size": ("config", "data_cache.size_bytes"),
    "scratchpad_size": ("config", "scratchpad.size_bytes"),
    "burst_words": ("config", "memory.burst_words"),
    "dual_issue": ("config", "pipeline.dual_issue"),
    "method_cache_analysis": ("wcet", "method_cache"),
    "static_cache_analysis": ("wcet", "static_cache"),
    "stack_cache_analysis": ("wcet", "stack_cache"),
    "analysis": ("wcet", "analysis"),
    "cores": ("cores", None),
    "arbiter": ("arbiter", None),
    "engine": ("engine", None),
    "slot_cycles": ("slot_cycles", None),
    "slot_weights": ("slot_weights", None),
    "taskset_utilisation": ("rtos", "utilisation"),
    "taskset_period_spread": ("rtos", "period_spread"),
    "taskset_priorities": ("rtos", "priority_assignment"),
    "taskset_seed": ("rtos", "seed"),
    "tasks_per_core": ("rtos", "tasks_per_core"),
    "task_policy": ("rtos", "policy"),
    "taskset_bodies": ("rtos", "bodies"),
}

_COMPILE_FIELDS = frozenset(f.name for f in fields(CompileOptions))
_WCET_FIELDS = frozenset(f.name for f in fields(WcetOptions))
#: WCET option fields that must receive a real boolean: truthiness would
#: silently turn a typo like ``analysis=bogus`` into ``True``.
_WCET_BOOL_FIELDS = frozenset(
    f.name for f in fields(WcetOptions) if f.type in ("bool", bool))


def resolve_axis(name: str) -> tuple[str, Optional[str]]:
    """Map an axis name to its ``(kind, target)`` pair.

    Resolution order: explicit alias, dotted ``PatmosConfig`` path,
    ``CompileOptions`` field name.  Anything else is an error.
    """
    if name in AXIS_ALIASES:
        return AXIS_ALIASES[name]
    if "." in name:
        return ("config", name)
    if name in _COMPILE_FIELDS:
        return ("compile", name)
    raise ExplorationError(
        f"unknown axis {name!r}; use an alias ({sorted(AXIS_ALIASES)}), a "
        f"dotted PatmosConfig path like 'method_cache.size_bytes', or a "
        f"CompileOptions field ({sorted(_COMPILE_FIELDS)})")


@dataclass(frozen=True)
class Axis:
    """One swept dimension: every value spawns a family of experiments."""

    name: str            # the name the user wrote (display)
    kind: str            # "config" | "compile" | "wcet" | "cores" | "engine" | ...
    target: Optional[str]  # dotted config path / options field, None otherwise
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ExplorationError(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully resolved design point: everything a worker needs to run it.

    Specs are self-contained and picklable so they can be shipped to
    ``multiprocessing`` workers, and deterministic so :meth:`key` can address
    a result cache shared between runs and machines.
    """

    kernel: str
    config: PatmosConfig
    options: CompileOptions = CompileOptions()
    kernel_params: tuple[tuple[str, Any], ...] = ()
    wcet_overrides: tuple[tuple[str, Any], ...] = ()
    cores: int = 1
    arbiter: str = "tdma"
    #: Execution engine for the simulated side (one of
    #: :data:`repro.sim.ENGINES`); part of the content hash — results from
    #: different engines must never alias in the cache even though they are
    #: required to agree.
    engine: str = "fast"
    slot_cycles: Optional[int] = None
    slot_weights: Optional[tuple[int, ...]] = None
    #: RTOS task-set parameters (sorted name/value pairs); non-empty turns
    #: this design point into a multi-task point (see the module docstring).
    rtos: tuple[tuple[str, Any], ...] = ()
    analyse_wcet: bool = True
    #: The axis assignment that produced this spec (display only; two specs
    #: that resolve to the same content share a cache key regardless).
    parameters: tuple[tuple[str, Any], ...] = ()

    def tdma_schedule(self):
        """The TDMA schedule of this design point (``None`` off-TDMA).

        ``slot_weights`` is treated as a *pattern* cycled over the cores so
        that a weights axis composes with a cores axis in one sweep:
        ``1:2`` on four cores becomes ``1:2:1:2``.
        """
        if self.cores <= 1 or self.arbiter != "tdma":
            return None
        from ..memory.tdma import TdmaSchedule
        slot = (self.slot_cycles if self.slot_cycles is not None
                else self.config.memory.burst_cycles())
        weights: tuple[int, ...] = ()
        if self.slot_weights:
            weights = tuple(self.slot_weights[i % len(self.slot_weights)]
                            for i in range(self.cores))
        return TdmaSchedule(num_cores=self.cores, slot_cycles=slot,
                            slot_weights=weights)

    def wcet_options(self) -> WcetOptions:
        """The WCET analysis options of this design point.

        The interference model follows the arbiter axis through the shared
        :meth:`WcetOptions.for_arbiter` mapping: TDMA is exact, round-robin
        uses the ``(N - 1)``-transfers bound, and priority is analysable at
        the top rank only (the options here describe that core; the runner
        still reports no bound for priority points, since no bound covers
        the makespan).

        TDMA points analyse the schedule's *bottleneck* core (smallest
        slot): its refined per-transfer bound dominates every other core's,
        so the single reported bound still covers the makespan of the
        homogeneous system while staying tighter than the blanket
        ``period - 1`` charge.
        """
        schedule = self.tdma_schedule()
        core_id = schedule.bottleneck_core() if schedule is not None else None
        return WcetOptions.for_arbiter(
            self.arbiter, self.cores, schedule=schedule, core_id=core_id,
            **dict(self.wcet_overrides))

    def key(self) -> str:
        """Stable content hash of the design point (the cache key)."""
        payload = {
            "kernel": self.kernel,
            "kernel_params": sorted(self.kernel_params),
            "config": self.config.to_dict(),
            "options": asdict(self.options),
            "cores": self.cores,
            "arbiter": self.arbiter,
            "engine": self.engine,
            "slot_cycles": self.slot_cycles,
            "slot_weights": (list(self.slot_weights)
                             if self.slot_weights else None),
            "wcet": (self.wcet_options().to_dict()
                     if self.analyse_wcet else None),
        }
        if self.rtos:
            # Added conditionally so the keys of pre-RTOS design points (and
            # hence existing result caches) stay valid.
            payload["rtos"] = sorted(self.rtos)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable identifier for tables and logs."""
        parts = [f"{name}={value}" for name, value in self.parameters]
        return f"{self.kernel}" + (f" [{', '.join(parts)}]" if parts else "")


class ParameterSpace:
    """A declarative sweep: kernels x axis values, expanded on demand.

    >>> space = (ParameterSpace(["vector_sum", "fir_filter"])
    ...          .axis("method_cache_size", [1024, 2048, 4096]))
    >>> len(space.specs())
    6
    """

    def __init__(self, kernels: Iterable[str],
                 base_config: Optional[PatmosConfig] = None,
                 base_options: CompileOptions = CompileOptions(),
                 kernel_params: Optional[dict[str, dict]] = None,
                 analyse_wcet: bool = True):
        self.kernels = resolve_kernels(kernels)
        if not self.kernels:
            raise ExplorationError("a parameter space needs at least one kernel")
        self.base_config = base_config or PatmosConfig()
        self.base_options = base_options
        self.kernel_params = dict(kernel_params or {})
        self.analyse_wcet = analyse_wcet
        self.axes: list[Axis] = []

    def axis(self, name: str, values: Sequence) -> "ParameterSpace":
        """Add one swept dimension (chainable)."""
        kind, target = resolve_axis(name)
        if any(existing.name == name for existing in self.axes):
            raise ExplorationError(f"duplicate axis {name!r}")
        self.axes.append(Axis(name=name, kind=kind, target=target,
                              values=tuple(values)))
        return self

    def __len__(self) -> int:
        count = len(self.kernels)
        for axis in self.axes:
            count *= len(axis.values)
        return count

    def specs(self) -> list[ExperimentSpec]:
        """Expand the space into concrete experiment specs (kernel-major)."""
        value_grid = itertools.product(*(axis.values for axis in self.axes))
        combos = list(value_grid)
        specs = []
        for kernel in self.kernels:
            for combo in combos:
                specs.append(self._make_spec(kernel, combo))
        return specs

    def _make_spec(self, kernel: str, combo: tuple) -> ExperimentSpec:
        config_overrides: dict[str, Any] = {}
        compile_overrides: dict[str, Any] = {}
        wcet_overrides: dict[str, Any] = {}
        cores = 1
        arbiter = "tdma"
        engine = "fast"
        slot_cycles: Optional[int] = None
        slot_weights: Optional[tuple[int, ...]] = None
        rtos_overrides: dict[str, Any] = {}
        parameters = []
        for axis, value in zip(self.axes, combo):
            parameters.append((axis.name, value))
            if axis.kind == "config":
                config_overrides[axis.target] = value
            elif axis.kind == "compile":
                compile_overrides[axis.target] = value
            elif axis.kind == "wcet":
                if axis.target not in _WCET_FIELDS:
                    raise ExplorationError(
                        f"unknown WCET option {axis.target!r}")
                if (axis.target in _WCET_BOOL_FIELDS
                        and not isinstance(value, bool)):
                    raise ExplorationError(
                        f"axis {axis.name!r} expects bool, got {value!r}")
                wcet_overrides[axis.target] = value
            elif axis.kind == "cores":
                cores = int(value)
            elif axis.kind == "arbiter":
                arbiter = _parse_arbiter(value)
            elif axis.kind == "engine":
                engine = _parse_engine(value)
            elif axis.kind == "slot_cycles":
                slot_cycles = int(value)
            elif axis.kind == "slot_weights":
                slot_weights = _parse_slot_weights(value)
            elif axis.kind == "rtos":
                rtos_overrides[axis.target] = value
            else:  # pragma: no cover - resolve_axis guards this
                raise ExplorationError(f"unknown axis kind {axis.kind!r}")
        if cores == 1:
            # Arbitration axes cannot affect a single core; normalising them
            # to the defaults lets e.g. (cores=1, arbiter=round_robin) and
            # (cores=1, arbiter=tdma) share one cache entry and one run
            # (the runner dedupes equal keys and relabels per spec).
            arbiter = "tdma"
            slot_cycles = None
            slot_weights = None
        elif arbiter != "tdma":
            # TDMA slot geometry has no effect under other arbiters either.
            slot_cycles = None
            slot_weights = None
        config = self.base_config.with_overrides(config_overrides)
        options = (CompileOptions(**{**asdict(self.base_options),
                                     **compile_overrides})
                   if compile_overrides else self.base_options)
        params = self.kernel_params.get(kernel, {})
        return ExperimentSpec(
            kernel=kernel,
            config=config,
            options=options,
            kernel_params=tuple(sorted(params.items())),
            wcet_overrides=tuple(sorted(wcet_overrides.items())),
            cores=cores,
            arbiter=arbiter,
            engine=engine,
            slot_cycles=slot_cycles,
            slot_weights=slot_weights,
            rtos=tuple(sorted(rtos_overrides.items())),
            analyse_wcet=self.analyse_wcet,
            parameters=tuple(parameters),
        )


def _parse_engine(value) -> str:
    name = str(value).strip().lower()
    if name not in ENGINES:
        raise ExplorationError(
            f"unknown engine {name!r}; available: {list(ENGINES)}")
    return name


def _parse_arbiter(value) -> str:
    from ..memory.arbiter import ARBITER_KINDS
    name = str(value).strip().lower()
    if name not in ARBITER_KINDS:
        raise ExplorationError(
            f"unknown arbiter {value!r}; choose from {list(ARBITER_KINDS)}")
    return name


def _parse_slot_weights(value) -> tuple[int, ...]:
    """Normalise a slot-weights axis value to a tuple of positive ints.

    Accepts sequences (``[1, 2, 1]``) and the CLI's colon-separated string
    form (``"1:2:1"`` — colons, because commas already separate axis
    values on the command line).
    """
    if isinstance(value, str):
        parts = [part for part in value.split(":") if part.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = [value]
    try:
        # Round-tripping through str rejects non-integral values (1.5)
        # instead of silently truncating them to a different design point.
        weights = tuple(int(str(part).strip()) for part in parts)
    except (TypeError, ValueError):
        raise ExplorationError(
            f"slot_weights must be integers like '1:2:1', got {value!r}")
    if not weights or any(weight < 1 for weight in weights):
        raise ExplorationError(
            f"slot_weights must be positive integers, got {value!r}")
    return weights
