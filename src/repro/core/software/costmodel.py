"""Cycle-cost model for the protocol extension software.

The paper measures two implementations of the extension software on
Sparcle (Section 4): a *flexible* C implementation built on the flexible
coherence interface, and a hand-tuned *assembly* implementation of
``DirnH5SNB``.  Table 2 decomposes a median read and write handler (8
readers, 1 writer per block) into activities; Table 1 reports the average
latencies.

This module reproduces that decomposition as an explicit cost model.
Fixed activity costs are taken directly from Table 2.  The two activities
that scale with the amount of directory work — storing pointers into the
extended directory and looking up/transmitting invalidations — are split
into a base plus a per-pointer (resp. per-invalidation) marginal term,
fitted so the 8-reader medians reproduce Table 2 exactly:

- C store-pointers: ``35 + 40/ptr``  (5 pointers emptied -> 235)
- asm store-pointers: ``14 + 12/ptr`` (-> 74)
- C write store: ``27 + 9/inv`` (8 invalidations -> 99)
- asm write store: ``13 + 4/inv`` (-> 45)
- C invalidate lookup+transmit: ``347 + 9/inv`` (-> 419); the small
  per-invalidation marginal matches Table 1's shallow growth from 8 to
  16 readers (726 -> 797 cycles).
- asm invalidate lookup+transmit: ``203 + 6/inv`` (-> 251)

The memory-usage optimization for worker sets of four or fewer
(Section 5, implemented by the 0/1-pointer protocols) stores pointers in
a small inline structure, shrinking the memory-management and hash-table
administration costs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.common.errors import ConfigurationError

FLEXIBLE = "flexible"
OPTIMIZED = "optimized"

#: Version of the handler cost model.  Bump whenever any fitted cost
#: below changes: the on-disk experiment result cache (repro.exec.cache)
#: mixes this into its keys, so stale cached RunStats are never reused
#: across cost-model revisions.
COST_MODEL_VERSION = 1

#: Activity names, in Table 2's row order.
TABLE2_ACTIVITIES = (
    "trap dispatch",
    "system message dispatch",
    "protocol-specific dispatch",
    "decode and modify hardware directory",
    "save state for function calls",
    "memory management",
    "hash table administration",
    "store pointers into extended directory",
    "invalidation lookup and transmit",
    "support for non-Alewife protocols",
    "trap return",
)


@dataclasses.dataclass(frozen=True)
class HandlerCost:
    """Latency (cycles) and per-activity breakdown of one handler run."""

    latency: int
    breakdown: Dict[str, int]
    #: network-injection spacing between successive software-transmitted
    #: messages (cycles per message)
    per_message_spacing: int = 0


#: one HandlerCost per distinct breakdown: every handler sample keeps
#: its cost's breakdown, and the arguments a breakdown depends on take
#: few values (pointer counts are bounded by the machine size), so
#: samples share these in place of a dict each.  Nothing mutates them.
_COSTS: Dict[Tuple[Tuple[Tuple[str, int], ...], int], HandlerCost] = {}


def _cost(breakdown: Dict[str, int], spacing: int = 0) -> HandlerCost:
    key = (tuple(breakdown.items()), spacing)
    cost = _COSTS.get(key)
    if cost is None:
        clean = {k: v for k, v in breakdown.items() if v}
        cost = _COSTS[key] = HandlerCost(sum(clean.values()), clean,
                                         spacing)
    return cost


class CostModel:
    """Handler latencies for one software implementation."""

    def __init__(self, implementation: str = FLEXIBLE,
                 smallset_opt: bool = False) -> None:
        if implementation not in (FLEXIBLE, OPTIMIZED):
            raise ConfigurationError(
                f"unknown software implementation {implementation!r}"
            )
        self.implementation = implementation
        self.smallset_opt = smallset_opt
        self._flexible = implementation == FLEXIBLE

    # ------------------------------------------------------------------
    # Table 2 fixed activities
    # ------------------------------------------------------------------

    def _fixed(self, request: str) -> Dict[str, int]:
        """Fixed activity costs for a read/write extension handler."""
        if self._flexible:
            if request == "read":
                return {
                    "trap dispatch": 11,
                    "system message dispatch": 14,
                    "protocol-specific dispatch": 10,
                    "decode and modify hardware directory": 22,
                    "save state for function calls": 24,
                    "support for non-Alewife protocols": 10,
                    "trap return": 14,
                }
            return {
                "trap dispatch": 9,
                "system message dispatch": 14,
                "protocol-specific dispatch": 10,
                "decode and modify hardware directory": 52,
                "save state for function calls": 17,
                "support for non-Alewife protocols": 6,
                "trap return": 9,
            }
        if request == "read":
            return {
                "trap dispatch": 11,
                "system message dispatch": 15,
                "decode and modify hardware directory": 17,
                "trap return": 11,
            }
        return {
            "trap dispatch": 11,
            "system message dispatch": 15,
            "decode and modify hardware directory": 40,
            "trap return": 11,
        }

    def _management(self, request: str, small: bool) -> Dict[str, int]:
        """Memory management + hash-table administration."""
        small = small and self.smallset_opt
        if self._flexible:
            if small:
                # Inline small-set structure: no free-list traffic, a
                # direct lookup instead of full hash administration.
                return {"memory management": 12, "hash table administration": 30}
            if request == "read":
                return {"memory management": 60, "hash table administration": 80}
            return {"memory management": 28, "hash table administration": 74}
        # The assembly version has no hash table at all (it exploits the
        # directory format) and uses a pre-initialised free list.
        if small:
            return {"memory management": 6}
        if request == "read":
            return {"memory management": 65}
        return {"memory management": 11}

    def _store_pointers(self, request: str, count: int, small: bool) -> int:
        small = small and self.smallset_opt
        if self._flexible:
            if small:
                return 15 + 25 * count
            if request == "read":
                return 35 + 40 * count
            return 27 + 9 * count
        if request == "read":
            return 14 + 12 * count
        return 13 + 4 * count

    def _inv_transmit(self, count: int) -> int:
        if self._flexible:
            return 347 + 9 * count
        return 203 + 6 * count

    @property
    def message_spacing(self) -> int:
        """Cycles between successive software message launches."""
        return 9 if self._flexible else 6

    # ------------------------------------------------------------------
    # Handler costs
    # ------------------------------------------------------------------

    def read_overflow(self, pointers_emptied: int,
                      small: bool = False) -> HandlerCost:
        """Read request that overflowed the hardware pointers: empty the
        hardware pointers into the software structure and record the new
        requester (Section 2.2)."""
        breakdown = self._fixed("read")
        breakdown.update(self._management("read", small))
        breakdown["store pointers into extended directory"] = (
            self._store_pointers("read", pointers_emptied, small)
        )
        return _cost(breakdown)

    def write_extended(self, invalidations: int,
                       small: bool = False) -> HandlerCost:
        """Write request to a block whose directory has been extended:
        transmit an invalidation to every recorded pointer."""
        breakdown = self._fixed("write")
        breakdown.update(self._management("write", small))
        breakdown["store pointers into extended directory"] = (
            self._store_pointers("write", invalidations, small)
        )
        breakdown["invalidation lookup and transmit"] = (
            self._inv_transmit(invalidations)
        )
        return _cost(breakdown, spacing=self.message_spacing)

    def ack(self) -> HandlerCost:
        """One acknowledgement processed in software (the ,ACK protocols
        trap on *every* acknowledgement)."""
        if self._flexible:
            breakdown = {
                "trap dispatch": 11,
                "system message dispatch": 14,
                "protocol-specific dispatch": 10,
                "decode and modify hardware directory": 22,
                "trap return": 14,
            }
        else:
            breakdown = {
                "trap dispatch": 11,
                "system message dispatch": 15,
                "decode and modify hardware directory": 17,
                "trap return": 11,
            }
        return _cost(breakdown)

    def ack_forward(self) -> HandlerCost:
        """Sequential invalidation (Section 7): an acknowledgement trap
        that also composes and launches the *next* invalidation."""
        breakdown = dict(self.ack().breakdown)
        breakdown["invalidation lookup and transmit"] = (
            24 if self._flexible else 12)
        return _cost(breakdown)

    def last_ack(self) -> HandlerCost:
        """Final acknowledgement of a sequence (the ,LACK protocols):
        software transmits the data to the waiting requester."""
        breakdown = dict(self.ack().breakdown)
        breakdown["data transmit"] = 30 if self._flexible else 15
        return _cost(breakdown)

    def data_send(self) -> int:
        """Marginal cost of a software data transmission."""
        return 30 if self._flexible else 15

    def sw_request(self, request: str, pointers: int,
                   small: bool = False) -> HandlerCost:
        """A request serviced *entirely* in software (the software-only
        directory, Section 2.3).  ``pointers`` is the number of directory
        pointers touched (recorded for a read; invalidated for a write).
        """
        if request == "read":
            breakdown = self._fixed("read")
            breakdown.update(self._management("read", small))
            breakdown["store pointers into extended directory"] = (
                self._store_pointers("read", max(pointers, 1), small)
            )
            breakdown["data transmit"] = self.data_send()
            return _cost(breakdown)
        breakdown = self._fixed("write")
        breakdown.update(self._management("write", small))
        if pointers:
            breakdown["store pointers into extended directory"] = (
                self._store_pointers("write", pointers, small)
            )
            breakdown["invalidation lookup and transmit"] = (
                self._inv_transmit(pointers)
            )
        else:
            breakdown["data transmit"] = self.data_send()
        return _cost(breakdown, spacing=self.message_spacing)

    def local_fault(self, small: bool = False) -> HandlerCost:
        """Local access to a remote-touched block under the software-only
        directory (every such access traps, Section 2.3)."""
        breakdown = {
            "trap dispatch": 11 if self._flexible else 11,
            "protocol-specific dispatch": 10 if self._flexible else 0,
            "decode and modify hardware directory": 22 if self._flexible else 17,
            "hash table administration": (
                (30 if small and self.smallset_opt else 80)
                if self._flexible else 0
            ),
            "trap return": 14 if self._flexible else 11,
        }
        return _cost(breakdown)
