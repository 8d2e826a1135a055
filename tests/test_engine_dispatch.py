"""Dispatch edge cases, identical under both readings of the table.

:meth:`~repro.core.protocol.engine.HomeProtocolEngine.handle` runs a
per-event, per-state plan compiled from the protocol table once per
backend class (``compiled``); :func:`tests.helpers.walk_table` interprets
the declared rows on every delivery (``interpreted``).  These tests pin
the corners of row *selection* where building the plan could plausibly
diverge from the table, parametrized over all three directory backends
and both readings:

- ``when_missing`` selection: a ``get``-policy event for a block with
  no directory entry sees only the wildcard rows (and an ``ignore``
  fallback swallows the event entirely);
- wildcard-row merge order: wildcard rows interleave with
  state-specific rows in *table order*, they are not appended;
- ``strict`` policies: an unmatched event raises through the backend's
  ``no_rule`` hook, both on missing entries and on entries whose state
  has no matching row.
"""

from __future__ import annotations

import types

import pytest

from repro.common.errors import ProtocolStateError
from repro.common.types import DirState
from repro.core.protocol.backends import (
    FullMapBackend,
    LimitedPointerBackend,
    SoftwareOnlyBackend,
)
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.network.fabric import Message
from tests.helpers import interpret_tables

#: One protocol per backend class: FullMapBackend, LimitedPointerBackend
#: (hardware table), SoftwareOnlyBackend (software-only table).
PROTOCOLS = {
    "full_map": "DirnHNBS-",
    "limited": "DirnH5SNB",
    "software_only": "DirnH0SNB,ACK",
}
HW_BACKENDS = ["full_map", "limited"]
ALL_BACKENDS = list(PROTOCOLS)
DISPATCH_PARAMS = ["compiled", "interpreted"]


def _home(backend: str, dispatch: str):
    """A 4-node machine's node 0 plus a data block it is home for."""
    machine = Machine(MachineParams(n_nodes=4), protocol=PROTOCOLS[backend])
    if dispatch == "interpreted":
        interpret_tables(machine)
    node = machine.nodes[0]
    block = machine.params.code_region_blocks + 8
    assert machine.params.home_of_block(block) == 0
    return node, block


def _msg(kind: str, src: int, block: int) -> Message:
    return Message(src=src, dst=0, kind=kind, size_flits=2, block=block)


@pytest.mark.parametrize("dispatch", DISPATCH_PARAMS)
@pytest.mark.parametrize("backend", HW_BACKENDS)
def test_when_missing_ignore_fallback(backend, dispatch):
    """relinq (get + ignore) on an absent entry is swallowed whole: no
    rows match, no entry is created, nothing is sent."""
    node, block = _home(backend, dispatch)
    sent_before = sum(node.stats.messages_sent.values())
    node.home.handle(_msg("relinq", 1, block))
    assert block not in node.home.entries
    assert sum(node.stats.messages_sent.values()) == sent_before


@pytest.mark.parametrize("dispatch", DISPATCH_PARAMS)
def test_when_missing_wildcard_guard_fires(dispatch):
    """The software-only flush_ack row is a wildcard whose guard
    tolerates ``entry=None`` — it must be selected for an absent entry."""
    node, block = _home("software_only", dispatch)
    backend = node.home.backend
    backend._flush_acks[block] = 2
    node.home.handle(_msg("ack", 1, block))
    assert backend._flush_acks[block] == 1
    assert block not in node.home.entries
    node.home.handle(_msg("ack", 1, block))
    assert block not in backend._flush_acks


@pytest.mark.parametrize("dispatch", DISPATCH_PARAMS)
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_strict_no_rule_on_missing_entry(backend, dispatch):
    """ack (get + error) with no entry and no matching wildcard row
    must raise through the backend's no_rule hook."""
    node, block = _home(backend, dispatch)
    with pytest.raises(ProtocolStateError):
        node.home.handle(_msg("ack", 1, block))
    assert block not in node.home.entries


@pytest.mark.parametrize("dispatch", DISPATCH_PARAMS)
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_strict_no_rule_on_unmatched_state(backend, dispatch):
    """fetch_data only has rows for transaction states; delivering it
    to a READ_ONLY entry must raise, not fall through silently."""
    node, block = _home(backend, dispatch)
    node.home.handle(_msg("rreq", 1, block))
    entry = node.home.entries[block]
    assert entry.state is DirState.READ_ONLY
    with pytest.raises(ProtocolStateError):
        node.home.handle(_msg("fetch_data", 1, block))


@pytest.mark.parametrize("dispatch", DISPATCH_PARAMS)
@pytest.mark.parametrize("backend", HW_BACKENDS)
def test_wildcard_row_precedes_state_rows(backend, dispatch):
    """The hardware busy row is a wildcard declared *before* the
    READ_ONLY rows: with a software handler pending it must win over
    read_record even though the state-specific row also matches."""
    node, block = _home(backend, dispatch)
    node.home.handle(_msg("rreq", 1, block))
    entry = node.home.entries[block]
    assert entry.state is DirState.READ_ONLY

    entry.sw_pending = True  # busy guard now passes in READ_ONLY
    busy_before = node.stats.busy_replies
    node.home.handle(_msg("rreq", 2, block))
    assert node.stats.busy_replies == busy_before + 1
    assert not entry.has_pointer(2)

    entry.sw_pending = False  # same message now reaches read_record
    node.home.handle(_msg("rreq", 2, block))
    assert node.stats.busy_replies == busy_before + 1
    assert entry.has_pointer(2)


@pytest.mark.parametrize("dispatch", DISPATCH_PARAMS)
def test_wildcard_rows_keep_table_order(dispatch):
    """Two wildcard rreq rows in the software-only table: the guarded
    local fast path is declared first and must be tried first — the
    home's own first read takes no trap and leaves the remote-access
    bit clear."""
    node, block = _home("software_only", dispatch)
    traps_before = sum(node.stats.traps.values())
    node.home.handle(_msg("rreq", 0, block))
    entry = node.home.entries[block]
    assert entry.state is DirState.READ_ONLY
    assert not entry.remote_bit
    assert sum(node.stats.traps.values()) == traps_before

    # A remote reader fails the local_private guard and falls through
    # to the general (trapping) grant row.
    node.home.handle(_msg("rreq", 1, block))
    assert entry.remote_bit
    assert sum(node.stats.traps.values()) == traps_before + 1


@pytest.mark.parametrize("backend_cls,protocols", [
    (FullMapBackend, ("DirnHNBS-", "DirnHNBS-")),
    (LimitedPointerBackend, ("DirnH5SNB", "DirnH1SNB,LACK")),
    (SoftwareOnlyBackend, ("DirnH0SNB,ACK", "DirnH0SNB,ACK")),
], ids=["full_map", "limited", "software_only"])
def test_one_dispatch_plan_per_backend_class(backend_cls, protocols):
    """Every home of one backend class, across nodes and machines, runs
    the same plan object, whose guards and actions are plain functions
    (a bound method would tie the shared plan to one backend)."""
    homes = [node.home
             for protocol in protocols
             for node in Machine(MachineParams(n_nodes=4),
                                 protocol=protocol).nodes]
    assert {type(home.backend) for home in homes} == {backend_cls}
    plan = homes[0]._dispatch
    assert all(home._dispatch is plan for home in homes)
    functions = [
        fn
        for _create, _strict, by_state, when_missing in plan.values()
        for rows in (*by_state.values(), when_missing)
        for guard, action, _row in rows
        for fn in (guard, action)
        if fn is not None
    ]
    assert functions
    assert not any(isinstance(fn, types.MethodType) for fn in functions)
