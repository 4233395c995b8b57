"""Main memory, memory controller, bus arbitration and scratchpad."""

from .arbiter import (
    ARBITER_KINDS,
    ArbiterPort,
    MemoryArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
    TdmaBusArbiter,
    make_arbiter,
)
from .controller import ControllerStats, MemoryController, PendingLoad
from .main_memory import MainMemory
from .scratchpad import Scratchpad
from .tdma import TdmaSchedule

__all__ = [
    "ARBITER_KINDS",
    "ArbiterPort",
    "ControllerStats",
    "MainMemory",
    "MemoryArbiter",
    "MemoryController",
    "PendingLoad",
    "PriorityArbiter",
    "RoundRobinArbiter",
    "Scratchpad",
    "TdmaBusArbiter",
    "TdmaSchedule",
    "make_arbiter",
]
