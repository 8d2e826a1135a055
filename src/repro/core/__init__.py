"""The paper's contribution: the software-extended protocol spectrum."""

from repro.core.cache_ctrl import CacheController
from repro.core.directory import DirectoryEntry
from repro.core.spec import (
    ALEWIFE_SUPPORTED,
    PAPER_SPECTRUM,
    AckMode,
    ProtocolSpec,
    hardware_pointer_label,
    spec_of,
)

__all__ = [
    "ALEWIFE_SUPPORTED",
    "AckMode",
    "CacheController",
    "DirectoryEntry",
    "PAPER_SPECTRUM",
    "ProtocolSpec",
    "hardware_pointer_label",
    "spec_of",
]
