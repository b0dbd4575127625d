"""Discrete-event simulation kernel.

A small, fully tested process-interaction DES kernel in the style of
SimPy. All higher layers (queueing models, the soNUMA architectural
simulator, workloads) are built on this package.
"""

from .engine import EmptySchedule, Environment
from .events import Event, Interrupt, PENDING, Process, Timeout
from .resources import Store
from .rng import RngRegistry
from .util import delayed_call

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "PENDING",
    "Store",
    "RngRegistry",
    "delayed_call",
]
