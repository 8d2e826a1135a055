"""Sharded parallel-in-time execution of one machine.

Splits a :class:`~repro.machine.machine.Machine`'s nodes across worker
processes and advances them through conservative time windows
(:mod:`repro.sim.windows`), exchanging cross-shard fabric messages at
window barriers.  The result is *byte-identical* to the serial engine —
same cycle counts, same :class:`~repro.sim.stats.RunStats` digest, same
attribution artifacts — because nothing about the simulation's logical
order depends on the partitioning:

- Event keys are ``(time, owner, seq)``, and ``seq`` only breaks ties
  within one owner (:mod:`repro.sim.engine`).  Every key naming a node
  is allocated in the shard that owns it, in the serial engine's
  relative order, so any two of its keys compare exactly as they do
  serially.
- A cross-shard message carries the key its sender allocated; the
  destination shard inserts it verbatim (:meth:`Simulator.post`), so
  the event sorts precisely where the serial heap would have put it.
- The window length is the mesh's conservative lookahead: no message
  sent inside a window can arrive before the next window, so shards
  never miss each other's events (see :mod:`repro.sim.windows`).
- Observability records (handler samples, event-bus events) are tagged
  with the engine key of the event that emitted them plus a per-shard
  emission counter; a k-way merge by that tag reproduces the serial
  emission order exactly, and the merged stream is replayed through
  the parent machine's event bus.

Every worker builds the *full* machine and runs the full (side-effect
free) workload setup, then starts only the processors it owns.  Shared
state never needs synchronising because there is none: directory
entries live at a block's home node, caches at their node, and every
protocol interaction crosses the fabric.

The transport is plain blocking pipes through a star coordinator (the
parent process).  On each round the coordinator gathers every shard's
outbound messages and next event time, picks the next window start
(skipping idle gaps), routes messages, and releases the shards.
Blocking IPC — not spin barriers — matters here: with more shards than
cores a spinning shard would steal the timeslice the running shard
needs.
"""

from __future__ import annotations

import heapq
import multiprocessing
import traceback
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, DeadlockError, SimulationError
from repro.sim.windows import (
    min_cross_shard_hops,
    owner_of_nodes,
    partition_nodes,
    window_length,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine
    from repro.sim.stats import RunStats
    from repro.workloads.base import Workload

__all__ = ["run_sharded", "sharding_available"]

#: A shard reports progress to the coordinator every round; the
#: coordinator forwards at most one report per shard per this many
#: windows to keep heartbeat overhead negligible.
PROGRESS_EVERY = 512

#: Observability channels a sharded run can record and replay.  The
#: ``advance`` channel (time-series samplers, live progress meters) is
#: deliberately absent: clock advance interleaves across shards and has
#: no per-event key to merge by.
RECORDABLE_CHANNELS = ("user", "stall", "handler", "trap", "message",
                       "transition")


def sharding_available() -> bool:
    """Whether this process may spawn shard workers.

    Daemonic processes (e.g. a job-pool worker) cannot fork children;
    the caller falls back to the serial engine, which is byte-identical
    anyway.
    """
    return not multiprocessing.current_process().daemon


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _build_worker_machine(ctor: Dict, workload: "Workload",
                          owned: List[int]):
    """Construct the full machine and start only the owned processors."""
    from repro.machine.machine import Machine

    machine = Machine(**ctor)
    workload.setup(machine)
    if machine.sim.pending_events:
        raise ConfigurationError(
            "sharded execution requires a schedule-free workload setup; "
            f"setup left {machine.sim.pending_events} events queued"
        )
    for node_id in owned:
        node = machine.nodes[node_id]
        node.processor.start(workload.thread(machine, node_id))
    return machine


def _shard_worker(conn, shard_id: int, n_shards: int, owned: List[int],
                  ctor: Dict, workload: "Workload",
                  obs_channels: Tuple[str, ...]) -> None:
    """Entry point of one shard process."""
    try:
        machine = _build_worker_machine(ctor, workload, owned)
        sim = machine.sim
        fabric = machine.fabric
        node_owner = owner_of_nodes(machine.params.n_nodes, n_shards)
        owned_mask = bytearray(machine.params.n_nodes)
        for node_id in owned:
            owned_mask[node_id] = 1

        #: cross-shard messages sent during the current window
        outbox: List[Tuple[int, int, int, object]] = []
        receive = fabric._receive
        post = sim.post
        alloc = sim.alloc_seq

        def schedule_arrival(arrival: int, fn) -> None:
            # Allocate the sender-side key exactly as the serial
            # fabric's sim.at() would, then either queue the arrival
            # locally or ship (key, message) to the owner.
            owner = sim.current_owner
            seq = alloc()
            msg = fn.args[0]
            if owned_mask[msg.dst]:
                post(arrival, owner, seq, fn)
            else:
                outbox.append((arrival, owner, seq, msg))

        fabric._schedule_arrival = schedule_arrival

        # Handler samples: collect tagged with (engine key, emission
        # index) for the deterministic merge.  A shard only needs its
        # locally-first MAX samples: its list is ordered by engine key,
        # so any sample past the cap has >= MAX globally-earlier
        # samples from this shard alone and can never make the merged
        # first MAX.
        from repro.machine.machine import MAX_HANDLER_SAMPLES

        tagged_samples: List[Tuple[Tuple[int, int, int], int, object]] = []
        samples_overflow = [0]
        if machine.collect_handler_samples:
            def record_sample(sample) -> None:
                n = len(tagged_samples)
                if n >= MAX_HANDLER_SAMPLES:
                    samples_overflow[0] += 1
                    return
                tagged_samples.append((sim.current_key, n, sample))

            machine.record_handler_sample = record_sample

        # Observability: subscribe a recorder per requested channel;
        # the parent replays the merged stream through its own bus.
        obs_records: List[Tuple[Tuple[int, int, int], int, str, object]] = []
        if obs_channels:
            bus = machine.observe()
            emitted = [0]

            def make_recorder(channel: str):
                def record(event) -> None:
                    obs_records.append(
                        (sim.current_key, emitted[0], channel, event))
                    emitted[0] += 1
                return record

            for channel in obs_channels:
                bus.subscribe(channel, make_recorder(channel))

        conn.send(("ok", sim.next_event_time, {}, sim.now))
        while True:
            command = conn.recv()
            if command[0] == "finish":
                break
            _, window_end, inbound = command
            for arrival, owner, seq, msg in inbound:
                post(arrival, owner, seq, partial(receive, msg))
            sim.run_window(window_end)
            grouped: Dict[int, List] = {}
            for entry in outbox:
                if entry[0] < window_end:
                    raise SimulationError(
                        f"lookahead violation: cross-shard message "
                        f"arrives at {entry[0]} inside window ending "
                        f"{window_end}"
                    )
                grouped.setdefault(node_owner[entry[3].dst], []).append(entry)
            outbox.clear()
            conn.send(("ok", sim.next_event_time, grouped, sim.now))

        stuck = [
            (node_id, machine.nodes[node_id].processor.state.value)
            for node_id in owned
            if not machine.nodes[node_id].processor.done
        ]
        result = {
            "stats": {i: machine.nodes[i].stats for i in owned},
            "done_at": dict(machine._done_at),
            "seq": (machine.seq_compute, machine.seq_mem_ops,
                    machine.seq_ifetches),
            "samples": tagged_samples,
            "samples_overflow": samples_overflow[0],
            "worker_sets": machine._worker_sets,
            "obs": obs_records,
            "fabric": (fabric.messages_delivered, fabric.flits_carried),
            "barriers": (machine.barrier.barriers_completed
                         if owned_mask[0] else 0),
            "stuck": stuck,
            "now": sim.now,
        }
        conn.send(("result", result))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


def _recv_checked(conn):
    reply = conn.recv()
    if reply[0] == "error":
        raise SimulationError(f"shard worker failed:\n{reply[1]}")
    return reply


def run_sharded(
    machine: "Machine",
    workload: "Workload",
    n_shards: int,
    progress: Optional[Callable[[int, int], None]] = None,
) -> "RunStats":
    """Run ``workload`` on ``machine`` across ``n_shards`` processes.

    Returns statistics byte-identical to the serial engine's.  Called
    by :meth:`Machine.run`; ``progress`` (if given) receives
    ``(shard_id, cycles)`` heartbeats at a bounded rate.
    """
    if not getattr(workload, "shard_safe", True):
        raise ConfigurationError(
            f"workload {workload.name!r} declares shard_safe=False: its "
            "thread op streams depend on the serial interleaving"
        )
    params = machine.params
    shards = partition_nodes(params.n_nodes, n_shards)
    owner = owner_of_nodes(params.n_nodes, n_shards)
    window = window_length(
        params.header_flits, params.hop_latency,
        min_cross_shard_hops(machine.mesh, owner),
    )

    obs_channels: Tuple[str, ...] = ()
    bus = machine.obs
    if bus is not None:
        if bus.on_advance:
            raise ConfigurationError(
                "sharded runs cannot drive 'advance' subscribers "
                "(samplers, live progress); drop them or run --shards 1"
            )
        obs_channels = tuple(c for c in RECORDABLE_CHANNELS
                             if getattr(bus, "on_" + c))

    ctx = multiprocessing.get_context()
    conns = []
    workers = []
    try:
        for shard_id, owned in enumerate(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(child_conn, shard_id, n_shards, owned,
                      machine._ctor_args, workload, obs_channels),
                name=f"repro-shard-{shard_id}",
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            workers.append(proc)

        rounds = 0
        while True:
            replies = [_recv_checked(conn) for conn in conns]
            inbound: List[List] = [[] for _ in shards]
            candidates: List[int] = []
            for _, next_time, grouped, _now in replies:
                if next_time is not None:
                    candidates.append(next_time)
                for dst_shard in sorted(grouped):
                    batch = grouped[dst_shard]
                    inbound[dst_shard].extend(batch)
                    candidates.extend(entry[0] for entry in batch)
            if progress is not None and rounds % PROGRESS_EVERY == 0:
                for shard_id, reply in enumerate(replies):
                    progress(shard_id, reply[3])
            if not candidates:
                break
            window_end = min(candidates) + window
            for shard_id, conn in enumerate(conns):
                conn.send(("run", window_end, inbound[shard_id]))
            rounds += 1

        for conn in conns:
            conn.send(("finish",))
        results = [_recv_checked(conn)[1] for conn in conns]
    finally:
        for conn in conns:
            conn.close()
        for proc in workers:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join()

    return _merge_results(machine, results, progress)


def _merge_results(machine: "Machine", results: List[Dict],
                   progress: Optional[Callable[[int, int], None]]) -> "RunStats":
    from repro.machine.machine import MAX_HANDLER_SAMPLES

    machine.sim.now = max(r["now"] for r in results)

    stuck: List[Tuple[int, str]] = []
    for result in results:
        stuck.extend(result["stuck"])
    if stuck:
        stuck.sort()
        raise DeadlockError(
            f"event queues drained at cycle {machine.sim.now} with "
            f"blocked processors: {stuck[:8]}"
        )

    for result in results:
        for node_id, stats in result["stats"].items():
            machine.nodes[node_id].stats = stats
        machine._done_at.update(result["done_at"])
        machine.seq_compute += result["seq"][0]
        machine.seq_mem_ops += result["seq"][1]
        machine.seq_ifetches += result["seq"][2]
        for block, members in result["worker_sets"].items():
            machine._worker_sets.setdefault(block, set()).update(members)
        machine.fabric._deliveries += result["fabric"][0]
        machine.fabric.flits_carried += result["fabric"][1]
        machine.barrier.barriers_completed += result["barriers"]

    # Handler samples: k-way merge by (engine key, emission index) —
    # exactly the serial emission order — then re-apply the global cap.
    total_emitted = sum(len(r["samples"]) + r["samples_overflow"]
                        for r in results)
    merged = heapq.merge(*(r["samples"] for r in results),
                         key=lambda entry: (entry[0], entry[1]))
    samples = []
    for entry in merged:
        if len(samples) >= MAX_HANDLER_SAMPLES:
            break
        samples.append(entry[2])
    machine.handler_samples = samples
    machine.handler_samples_dropped = total_emitted - len(samples)

    # Observability replay: same merge, pushed through the parent bus
    # so subscribers (span collectors, attribution) see the exact
    # serial event stream.
    bus = machine.obs
    if bus is not None:
        replay = heapq.merge(*(r["obs"] for r in results),
                             key=lambda entry: (entry[0], entry[1]))
        emit = {channel: getattr(bus, channel)
                for channel in RECORDABLE_CHANNELS}
        for _key, _n, channel, event in replay:
            emit[channel](event)

    if progress is not None:
        for shard_id, result in enumerate(results):
            progress(shard_id, result["now"])

    return machine._collect()
