"""Sharded serving: sensor-graph partitions, owner routing, halo exchange.

The serving layer reuses the partitioner the paper develops for its
distribution ablation (:func:`repro.graph.partition.partition_graph`):
sensors are split into balanced shards, each shard *owns* its sensors'
streaming observations and answers forecast requests for them.  A request
for sensor *s* is routed to ``owner_of(s)``; only the owning shard (plus
the peers it fetches halo columns from) does work.

**Why shards still see the whole graph.**  An ST-GNN's receptive field
grows by ``k_hops`` per diffusion per recurrent step, so over a
12-step horizon a DCRNN's exact receptive field is effectively the entire
sensor network — which is precisely the paper's argument *against*
partitioned training.  Sharded serving therefore buys **data locality and
routing** (each shard stores only its own columns; peers' columns arrive
as byte-accounted halo fetches over a :class:`~repro.runtime.
process_group.ProcessGroup`), not reduced compute.  Exact inference assembles the
full input (``receptive_hops=None``, the default), which makes sharded
predictions bitwise identical to single-shard inference; passing a finite
``receptive_hops`` truncates the halo to a k-hop neighbourhood and
zero-fills the rest — cheaper traffic, approximate forecasts.

**What runs.**  :class:`ShardedSession` is a
:class:`~repro.serving.session.ModelSession`: staging, the gradient-free
forward and unit inversion are inherited.  An explicit-window
``predict`` charges the request fan-out to the group and forwards the
staged batch **once** inline (every shard would see the same input); on
a process-isolated group each shard's interpreter forwards it and ships
home its owned rows.  Each shard's owned-columns window is a plain
array, built at most once per ingest and read by peers for their halo
columns, with the logical transfer's bytes charged to the group.  No
workload times sharded serving, so no speed is claimed for it.

**Failover.**  A :class:`ShardWorker` can die (killed explicitly via
:meth:`ShardedSession.kill_worker`, or on schedule through a
:class:`~repro.runtime.faults.FaultPlan` ``worker_crash`` event); its
store state is lost.  The session detects the death lazily at the next
serving-path touch and fails over: a standby replica is promoted onto
the dead shard's exact ownership when one is available, otherwise the
survivors re-partition the graph, and in both cases the rebuilt feature
stores are warmed by replaying the session's bounded raw-observation
log.  Replayed ingests run the exact standardization arithmetic of the
originals, so post-failover predictions equal the unsharded session's —
the chaos tier pins this, and every failover's rebuild latency is
recorded as a :class:`FailoverEvent`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.graph.partition import partition_graph
from repro.kernels.precision import resolve_store_dtype
from repro.preprocessing.scaler import StandardScaler
from repro.runtime.process_group import ProcessGroup, as_process_group
from repro.serving.cache import FeatureStore
from repro.serving.session import ModelSession
from repro.utils.errors import ShapeError


def halo_nodes(weights: sp.spmatrix, owned: np.ndarray,
               hops: int | None, num_nodes: int) -> np.ndarray:
    """Nodes outside ``owned`` whose features the shard needs.

    ``hops=None`` returns every non-owned node (exact inference); a finite
    hop count expands the owned set along the symmetrized adjacency
    pattern and returns the expansion minus the owned set.
    """
    owned_mask = np.zeros(num_nodes, dtype=bool)
    owned_mask[owned] = True
    if hops is None:
        return np.flatnonzero(~owned_mask)
    pattern = ((weights + weights.T) != 0).tocsr()
    reach = owned_mask.copy()
    for _ in range(max(int(hops), 0)):
        reach = reach | (pattern @ reach)
    return np.flatnonzero(reach & ~owned_mask)


@dataclass
class ShardWorker:
    """One shard: its owned sensors, halo set, and local state."""

    shard_id: int
    owned: np.ndarray           # sorted node ids this shard owns
    halo: np.ndarray            # non-owned node ids it must fetch
    store: FeatureStore | None  # owned-column observations only
    assemble: np.ndarray        # [horizon, num_nodes, features] input buffer
    own_window: np.ndarray      # [horizon, len(owned), features] store window
    alive: bool = True          # dead workers trigger failover on detection
    window_version: int = -1    # session version own_window was built at


@dataclass(frozen=True)
class FailoverEvent:
    """One completed failover: which shards died and what it cost."""

    shards: tuple[int, ...]     # shard ids that were dead when detected
    mode: str                   # "standby" | "repartition"
    seconds: float              # wall time to rebuild workers + replay state
    at_request: int             # requests_served when the failure surfaced
    num_shards_after: int


@dataclass(frozen=True)
class ScaleEvent:
    """One deliberate fleet resize (autoscaler- or operator-driven)."""

    from_shards: int
    to_shards: int
    mode: str                   # "scale_up" | "scale_down"
    seconds: float              # wall time to re-partition + replay state
    at_request: int             # requests_served when the resize ran
    standby_used: int           # spares consumed to cover added shards
    standby_returned: int       # retired shards parked back as spares


class ShardedSession(ModelSession):
    """Multi-worker serving session over a partitioned sensor graph.

    A :class:`~repro.serving.session.ModelSession` whose streamed state
    lives in per-shard stores, so the :class:`~repro.serving.service.
    ForecastService` facade treats both interchangeably.  All shards run
    in-process and share one model instance (parameters are replicated in
    a real deployment; simulation shares memory), while data movement is
    charged to a :class:`ProcessGroup` with one rank per shard — the same
    collectives layer the DDP trainers use.  ``add_time_feature``
    overrides the session's dataset-free time-of-day rule.
    """

    def __init__(self, model: Any, scaler: StandardScaler | None,
                 graph: Any, *, num_shards: int, spec: Any = None,
                 receptive_hops: int | None = None,
                 store_capacity: int | None = None,
                 store_dtype="float32",
                 comm: ProcessGroup | None = None,
                 add_time_feature: bool | None = None,
                 num_standby: int = 0, fault_plan: Any = None):
        super().__init__(model, scaler, spec=spec)
        if add_time_feature is not None:
            self.add_time_feature = bool(add_time_feature)
        self.graph = graph
        self.num_shards = int(num_shards)
        self.receptive_hops = receptive_hops
        if graph.num_nodes != self.num_nodes:
            raise ShapeError(f"graph has {graph.num_nodes} nodes but model "
                             f"expects {self.num_nodes}")
        self.assignment = partition_graph(graph.weights, self.num_shards)
        self.comm = as_process_group(comm, world_size=self.num_shards)
        if self.comm.world_size != self.num_shards:
            raise ValueError("process group world size must equal num_shards")

        self._store_capacity = store_capacity or 4 * self.horizon
        # Storage precision for the per-shard feature stores: windows
        # still materialise into float32 compute buffers (cast on read),
        # so "float16" halves each shard's resident ring at unchanged
        # model math.
        self.store_dtype = resolve_store_dtype(store_dtype) or np.float32
        # Fault tolerance: spare replica slots, the scheduled chaos plan,
        # and a bounded raw-observation log (one full store capacity) that
        # failover replays into rebuilt workers' feature stores.
        self.num_standby = int(num_standby)
        self.standby = self.num_standby
        self.fault_plan = fault_plan
        self._fault_fired: set[int] = set()
        self.failover_events: list[FailoverEvent] = []
        self.scale_events: list[ScaleEvent] = []
        self.faults_dropped: list[str] = []
        self._ingest_log: deque = deque(maxlen=self._store_capacity)
        self.workers = self._fleet(self.assignment, self.num_shards)
        self._validate_ownership(self.workers)
        # Bumped on every ingest; a worker's own_window is rebuilt at most
        # once per bump, however many peers read it for halo columns.
        # Fresh workers (failover, resize) start unstamped.
        self._window_version = 0
        self._merged = np.empty((self.horizon, self.num_nodes, 1), np.float32)
        self._window_buf = np.empty(
            (self.horizon, self.num_nodes, self.in_features), np.float32)

    def _build_worker(self, shard_id: int, owned: np.ndarray) -> ShardWorker:
        """One shard worker owning ``owned``, with fresh halo and buffers
        and a store warmed from the raw observation log (empty at
        construction; replayed after a failover or resize)."""
        halo = halo_nodes(self.graph.weights, owned, self.receptive_hops,
                          self.num_nodes)
        store = None
        if self.scaler is not None:
            store = self.new_store(self._store_capacity,
                                   dtype=self.store_dtype,
                                   num_nodes=len(owned))
            for values, ts in self._ingest_log:
                store.ingest(values[owned], ts)
        return ShardWorker(
            shard_id=shard_id, owned=owned, halo=halo, store=store,
            assemble=np.zeros((self.horizon, self.num_nodes,
                               self.in_features), np.float32),
            own_window=np.empty((self.horizon, len(owned),
                                 self.in_features), np.float32))

    def _fleet(self, assignment: np.ndarray,
               num_shards: int) -> list[ShardWorker]:
        """One fresh worker per shard id of ``assignment``."""
        return [self._build_worker(s, np.flatnonzero(assignment == s))
                for s in range(num_shards)]

    def _fresh_own_window(self, w: ShardWorker) -> np.ndarray:
        """``w``'s owned-columns window, materialised at most once per
        ingest version.  Peers consuming halo columns read it too (the
        byte accounting of the logical transfer stays with the caller)."""
        if w.store is None:
            raise RuntimeError("sharded session built without a scaler "
                               "has no stores to read")
        if w.window_version != self._window_version:
            w.store.window(self.horizon, out=w.own_window)
            w.window_version = self._window_version
        return w.own_window

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def owner_of(self, node: int) -> int:
        """The shard that owns sensor ``node``."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")
        return int(self.assignment[node])

    # ------------------------------------------------------------------
    # Fault tolerance: detection, standby promotion, re-partitioning
    # ------------------------------------------------------------------
    def kill_worker(self, shard_id: int) -> None:
        """Mark a shard worker dead; its local store state is *lost*.

        Failover happens at the next serving-path touch (detection is
        lazy, like a missed heartbeat), through :meth:`_ensure_healthy`.
        """
        if not 0 <= shard_id < len(self.workers):
            raise IndexError(f"shard {shard_id} out of range "
                             f"[0, {len(self.workers)})")
        w = self.workers[shard_id]
        w.alive = False
        w.store = None

    def _maybe_inject_faults(self) -> None:
        """Fire any scheduled ``worker_crash`` events that are due.

        A due event whose target shard no longer exists (a repartition
        shrank the worker list) or is already dead cannot be delivered;
        it is recorded in :attr:`faults_dropped` instead of silently
        vanishing, so a chaos run can assert its schedule was consumed.
        """
        if self.fault_plan is None:
            return
        for i, ev in self.fault_plan.serving_events():
            if i in self._fault_fired or self.requests_served < ev.request:
                continue
            self._fault_fired.add(i)
            if ev.shard < len(self.workers) and self.workers[ev.shard].alive:
                self.kill_worker(ev.shard)
            else:
                self.faults_dropped.append(ev.encode())

    def _ensure_healthy(self) -> None:
        """Serving-path gate: inject due faults, then fail over any dead
        workers before a request touches them."""
        self._maybe_inject_faults()
        if any(not w.alive for w in self.workers):
            self._failover()

    def _failover(self) -> None:
        """Rebuild serving capacity after worker deaths.

        If enough standby replicas remain to cover *every* dead shard,
        each one is *promoted onto a standby*: same ownership, fresh
        store replayed from the observation log — the partition (and
        therefore every halo set) is unchanged.  Otherwise the survivors
        *re-partition*: the graph is re-split over the largest
        power-of-two shard count the surviving workers support (the
        partitioner's constraint), every store is rebuilt from the log,
        and any standby capacity is deliberately *retained* for a later
        failure rather than half-spent on a partition that is being
        discarded anyway.  Either way, post-failover windows are
        assembled from the same replayed observations the dead worker
        held, so predictions stay shard-invariant.
        """
        t0 = time.perf_counter()
        dead = tuple(w.shard_id for w in self.workers if not w.alive)
        alive = [w for w in self.workers if w.alive]
        if self.standby >= len(dead):
            # Promotion inherits the dead workers' ownership verbatim, so
            # check it is still a partition *before* rebuilding onto it —
            # building a worker on corrupt ownership would crash (or
            # worse, merge) less legibly.
            self._validate_ownership(self.workers)
            self.standby -= len(dead)
            for shard_id in dead:
                self.workers[shard_id] = self._build_worker(
                    shard_id, self.workers[shard_id].owned)
            mode = "standby"
        else:
            if not alive:
                raise RuntimeError(
                    f"every shard worker is dead ({len(dead)} down) and "
                    f"{self.standby} standby replica(s) cannot cover them; "
                    f"the sharded session cannot recover")
            new_num = 1 << (len(alive).bit_length() - 1)
            self.num_shards = new_num
            self.assignment = partition_graph(self.graph.weights, new_num)
            self.workers = self._fleet(self.assignment, new_num)
            mode = "repartition"
        self._validate_ownership(self.workers)
        self.failover_events.append(FailoverEvent(
            shards=dead, mode=mode, seconds=time.perf_counter() - t0,
            at_request=self.requests_served,
            num_shards_after=len(self.workers)))

    @staticmethod
    def _describe_nodes(ids: np.ndarray) -> str:
        shown = ", ".join(str(int(i)) for i in ids[:8])
        return shown + (", ..." if len(ids) > 8 else "")

    def _validate_ownership(self, workers: list[ShardWorker]) -> None:
        """Refuse any worker set that does not *partition* the sensors.

        The merge paths (:meth:`predict`, :meth:`forecast_current`) write
        ``out[:, :, w.owned]`` per shard, so an overlapping assignment
        would let one shard silently overwrite another's forecast and a
        gap would leave stale buffer contents in the output.  Every
        worker-list rebuild (construction, failover, :meth:`scale_to`)
        runs through this gate before the new fleet serves a request.
        """
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        for w in workers:
            owned = np.asarray(w.owned)
            if owned.size and (int(owned.min()) < 0
                               or int(owned.max()) >= self.num_nodes):
                raise ShapeError(
                    f"shard {w.shard_id} claims sensors outside "
                    f"[0, {self.num_nodes})")
            np.add.at(counts, owned.astype(np.int64), 1)
        dup = np.flatnonzero(counts > 1)
        if dup.size:
            raise ShapeError(
                f"overlapping shard assignment: {dup.size} sensor(s) owned "
                f"by more than one shard ({self._describe_nodes(dup)}); a "
                f"double-served sensor lets one shard's merge silently "
                f"overwrite another's forecast, so the partition is refused")
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise ShapeError(
                f"incomplete shard assignment: {missing.size} sensor(s) "
                f"owned by no shard ({self._describe_nodes(missing)}); "
                f"their merged forecasts would be stale buffer contents")

    # ------------------------------------------------------------------
    # Elastic scaling: deliberate fleet resizes
    # ------------------------------------------------------------------
    def scale_to(self, num_shards: int, *,
                 assignment: np.ndarray | None = None) -> ScaleEvent | None:
        """Resize the fleet to ``num_shards`` workers, live.

        The session first resolves any pending failures (a resize must
        not mask a death), then re-partitions the graph — or adopts an
        explicit ``assignment`` vector, which is validated to be a true
        partition (no overlaps, no gaps) before any worker serves from
        it — builds the new workers, and warms every store by replaying
        the bounded observation log, exactly like a repartition failover.
        Post-scale predictions therefore stay bitwise identical to the
        pre-scale (and unsharded) session's for any window the log still
        covers.

        Standby accounting: a scale-up consumes spare replicas to cover
        the added shards (capacity that was parked is now serving); a
        scale-down parks retired workers back as spares, up to the
        configured ``num_standby`` cap.

        When the new worker count differs from the process group's world
        size, a fresh simulated group is provisioned at the new world
        (rank fleets are not resizable in place); byte accounting
        restarts with it, and a custom fabric passed at construction is
        replaced by the simulated one.

        Returns the recorded :class:`ScaleEvent`, or ``None`` when the
        fleet is already the requested size and no explicit assignment
        was given.
        """
        self._ensure_healthy()
        t0 = time.perf_counter()
        new_num = int(num_shards)
        if new_num < 1:
            raise ValueError(f"cannot scale to {new_num} shards")
        old_num = self.num_shards
        if new_num == old_num and assignment is None:
            return None
        if assignment is None:
            new_assignment = partition_graph(self.graph.weights, new_num)
        else:
            new_assignment = np.asarray(assignment, dtype=np.int64).ravel()
            if new_assignment.shape != (self.num_nodes,):
                raise ShapeError(
                    f"assignment must map all {self.num_nodes} sensors, "
                    f"got shape {np.asarray(assignment).shape}")
        workers = self._fleet(new_assignment, new_num)
        self._validate_ownership(workers)
        standby_used = standby_returned = 0
        if new_num > old_num:
            standby_used = min(self.standby, new_num - old_num)
            self.standby -= standby_used
            mode = "scale_up"
        elif new_num < old_num:
            standby_returned = min(old_num - new_num,
                                   self.num_standby - self.standby)
            self.standby += standby_returned
            mode = "scale_down"
        else:
            mode = "repartition"
        self.num_shards = new_num
        self.assignment = new_assignment
        self.workers = workers
        if self.comm.world_size != new_num:
            self.comm = as_process_group(None, world_size=new_num)
        event = ScaleEvent(
            from_shards=old_num, to_shards=new_num, mode=mode,
            seconds=time.perf_counter() - t0,
            at_request=self.requests_served,
            standby_used=standby_used, standby_returned=standby_returned)
        self.scale_events.append(event)
        return event

    # ------------------------------------------------------------------
    # Streaming observations (scattered to owner shards)
    # ------------------------------------------------------------------
    def ingest(self, values: np.ndarray, timestamp_minutes: float) -> None:
        """Scatter one full observation row to each shard's local store."""
        self._ensure_healthy()
        values = np.asarray(values)
        # Validate the *full* row here: each shard's store only ever sees
        # its owned slice, which can be shape-valid even when the row is
        # not (fancy indexing happily slices an over-long row).
        raw = self.in_features - int(self.add_time_feature)
        if values.shape != (self.num_nodes, raw):
            raise ShapeError(f"expected a {(self.num_nodes, raw)} "
                             f"observation row, got {values.shape}")
        if self.scaler is None:
            raise RuntimeError("sharded session built without a scaler "
                               "has no stores to ingest into")
        for w in self.workers:
            w.store.ingest(values[w.owned], timestamp_minutes)
        # Log only rows every store accepted: a rejected malformed row
        # must fail its caller, never linger to poison a later failover
        # replay.
        self._ingest_log.append((values.copy(), float(timestamp_minutes)))
        # Invalidate every cached own_window materialisation.
        self._window_version += 1

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Forward explicit full windows; every shard's rows, merged.

        The front door broadcasts the request batch to every shard (byte
        accounted).  Every shard would forward the same input, so inline
        the staged batch is forwarded once, bitwise equal to unsharded
        inference.  On a process-isolated group with one rank per shard,
        each rank's interpreter forwards it and ships home only its owned
        rows.  (After a repartition failover the worker count can drop
        below the fixed world size; the inline path then keeps serving.)
        """
        self._ensure_healthy()
        staged = self._staged(windows)
        # Charge the fan-out without materialising per-shard copies.
        for w in self.workers[1:]:
            self.comm.fetch(0, w.shard_id, staged.nbytes,
                            category="serve-request")
        if (len(self.workers) == self.comm.world_size
                and getattr(self.comm.transport, "isolated_ranks", False)):
            def shard_forward(rank: int) -> np.ndarray:
                return self._forward(staged)[:, :, self.workers[rank].owned]

            out = np.empty(staged.shape[:3] + (1,), np.float32)
            for w, rows in zip(self.workers,
                               self.comm.run_ranks(shard_forward)):
                out[:, :, w.owned] = rows
        else:
            out = self._forward(staged)
        self.requests_served += len(staged)
        return out

    def _shard_forecast(self, w: ShardWorker) -> np.ndarray:
        """Shard ``w``'s ``[horizon, nodes, 1]`` forecast from its full
        input window: local columns + halo fetches from peer owners
        (byte-accounted), zero elsewhere."""
        h = self.horizon
        w.assemble[:, w.owned] = self._fresh_own_window(w)
        itemsize = w.assemble.itemsize
        for peer in self.workers:
            if peer.shard_id == w.shard_id:
                continue
            cols = peer.owned[np.isin(peer.owned, w.halo, assume_unique=True)]
            if len(cols) == 0:
                continue
            peer_window = self._fresh_own_window(peer)
            local = np.searchsorted(peer.owned, cols)
            w.assemble[:, cols] = peer_window[:, local]
            self.comm.fetch(peer.shard_id, w.shard_id,
                            h * len(cols) * self.in_features * itemsize,
                            category="halo")
        return self._forward(w.assemble[None])[0]

    def current_window(self) -> np.ndarray:
        """The full current input window assembled from every shard's
        *owned* columns (ownership covers all sensors, so no halo traffic
        is needed).  This is the front door's ``window=None``
        materialisation for the micro-batched path; :meth:`predict` then
        broadcasts it like any explicit window.

        Returns an owned copy (like :meth:`ModelSession.current_window`):
        callers may hold it across later ingests — a queued request must
        keep the snapshot it was submitted with."""
        self._ensure_healthy()
        out = self._window_buf
        for w in self.workers:
            out[:, w.owned] = self._fresh_own_window(w)
        return out.copy()

    def forecast_current(self) -> np.ndarray:
        """Forecast every sensor from the shards' stores: each shard
        assembles its halo, forwards, and contributes its owned rows."""
        self._ensure_healthy()
        for w in self.workers:
            self._merged[:, w.owned] = self._shard_forecast(w)[:, w.owned]
        self.requests_served += 1
        return self._merged

    def forecast_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """Route a per-sensor request: only the owner shards of ``nodes``
        (plus their halo peers) do work.  Returns ``[horizon, len(nodes)]``
        standardized predictions in request order."""
        self._ensure_healthy()
        nodes = np.atleast_1d(np.asarray(nodes))
        out = np.empty((self.horizon, len(nodes)), np.float32)
        involved = np.unique(self.assignment[nodes])
        for s in involved:
            shard_out = self._shard_forecast(self.workers[int(s)])
            mask = self.assignment[nodes] == s
            out[:, mask] = shard_out[:, nodes[mask], 0]
        self.requests_served += 1
        return out

    # ------------------------------------------------------------------
    def halo_stats(self) -> dict:
        """Traffic summary: per-shard halo sizes and total halo bytes."""
        return {
            "num_shards": self.num_shards,
            "halo_sizes": [int(len(w.halo)) for w in self.workers],
            "owned_sizes": [int(len(w.owned)) for w in self.workers],
            "store_dtype": np.dtype(self.store_dtype).name,
            "store_resident_bytes": sum(
                w.store.resident_nbytes for w in self.workers
                if w.store is not None),
            "bytes_by_category": dict(self.comm.stats.bytes_by_category),
            "ops": self.comm.stats.ops,
            "failovers": len(self.failover_events),
            "scale_events": len(self.scale_events),
            "standby_remaining": self.standby,
            "faults_dropped": list(self.faults_dropped),
        }
