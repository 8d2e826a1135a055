"""Common primitive types and errors shared across the package."""

import os

from repro.common.errors import (
    AllocationError,
    ConfigurationError,
    DeadlockError,
    ProtocolSpecError,
    ProtocolStateError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.common.types import (
    AccessType,
    Address,
    BlockId,
    CacheState,
    DirState,
    NodeId,
    TrapKind,
    block_base,
    block_of,
)

#: The checkout this package runs from: the directory above
#: ``src/repro``.  Defaults that name committed files (the attribution
#: baseline, the benchmark record) resolve against it, so they work
#: from any working directory; explicit paths still resolve against
#: the working directory.
CHECKOUT_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

__all__ = [
    "CHECKOUT_ROOT",
    "AccessType",
    "Address",
    "AllocationError",
    "BlockId",
    "CacheState",
    "ConfigurationError",
    "DeadlockError",
    "DirState",
    "NodeId",
    "ProtocolSpecError",
    "ProtocolStateError",
    "ReproError",
    "SimulationError",
    "TrapKind",
    "WorkloadError",
    "block_base",
    "block_of",
]
