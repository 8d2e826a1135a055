"""Shared primitive types used across the simulator.

Addresses are plain integers counting 32-bit *words*.  A cache/memory
*block* (line) is ``block_words`` consecutive words; block identifiers are
``addr >> block_shift``.  Keeping these as ints (rather than wrapper
classes) keeps the inner simulation loops fast.
"""

from __future__ import annotations

import enum

#: Type aliases, for documentation purposes.  Node ids are ``0..n-1``;
#: addresses and block ids are non-negative ints.
NodeId = int
Address = int
BlockId = int


class AccessType(enum.Enum):
    """Kind of memory access issued by a processor."""

    READ = "read"
    WRITE = "write"
    IFETCH = "ifetch"

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE


class CacheState(enum.Enum):
    """State of a line in a processor cache (MSI-style, Alewife naming).

    ``READ_ONLY`` corresponds to a shared clean copy; ``READ_WRITE`` to an
    exclusive, writable (and presumed dirty) copy.
    """

    INVALID = "invalid"
    READ_ONLY = "read_only"
    READ_WRITE = "read_write"


class DirState(enum.Enum):
    """Home-side hardware directory states (Alewife CMMU naming).

    ``READ_TRANSACTION`` / ``WRITE_TRANSACTION`` are the transient states
    during which the hardware answers new requests with BUSY messages,
    which is Alewife's livelock-free retry mechanism.
    """

    ABSENT = "absent"
    READ_ONLY = "read_only"
    READ_WRITE = "read_write"
    READ_TRANSACTION = "read_transaction"
    WRITE_TRANSACTION = "write_transaction"

    @property
    def transient(self) -> bool:
        return self in (DirState.READ_TRANSACTION, DirState.WRITE_TRANSACTION)


class TrapKind(enum.Enum):
    """Reasons the CMMU interrupts the local processor for protocol work."""

    READ_OVERFLOW = "read_overflow"
    WRITE_EXTENDED = "write_extended"
    ACK_SOFTWARE = "ack_software"
    ACK_LAST = "ack_last"
    LOCAL_FAULT = "local_fault"
    REMOTE_REQUEST = "remote_request"


def block_of(addr: Address, block_shift: int) -> BlockId:
    """Return the block id containing word address ``addr``."""
    return addr >> block_shift


def block_base(block: BlockId, block_shift: int) -> Address:
    """Return the first word address of ``block``."""
    return block << block_shift
