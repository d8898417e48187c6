"""Deterministic fault injection for the distributed runtime.

Production failures — crashed ranks, stragglers, slow links, dead
serving sessions — are random in the wild but must be *scheduled* in a
test: a :class:`FaultPlan` is a seeded, serializable list of
:class:`FaultEvent`\\ s, and :class:`FaultyTransport` wraps any
:class:`~repro.runtime.transport.Transport` to fire those events at the
fabric's own boundaries:

- ``rank_crash(step, rank)`` raises :class:`RankFailure` the moment the
  doomed rank touches the fabric at (or after) the scheduled global
  step — the trainer's recovery path catches it, restores the last
  checkpoint and replays.
- ``straggler(rank, slowdown)`` stretches the rank's compute charges; on
  :class:`~repro.runtime.transport.SimTransport` the blocking-collective
  semantics then make every rank wait for the slow one, exactly the
  tail-latency amplification real clusters see.
- ``message_delay`` charges extra fabric time to collectives and
  data-plane fetches (numerics never change, only cost).
- ``session_crash``/``session_straggler``/``store_corruption`` target a
  named gateway *deployment* (``target``) and are consumed by the
  gateway's resilience layer (:mod:`repro.serving.resilience`): a
  session crash makes the deployment's dispatches raise
  :class:`~repro.utils.errors.SessionFailure` until it is restarted, a
  session straggler stretches its service times, and a store corruption
  flips bytes in one of its result-cache entries (which the cache's
  integrity fingerprint must then catch).

Every event fires deterministically, so a chaos run is exactly as
reproducible as a clean one — which is what lets the chaos tier assert
*bitwise-identical* recovery.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.utils.errors import CommunicatorError
from repro.utils.seeding import new_rng

#: Event kinds a plan may schedule.  The ``session_*``/``store_*`` kinds
#: target the gateway (:data:`GATEWAY_KINDS`); everything else is
#: injected by :class:`FaultyTransport`.
FAULT_KINDS = ("rank_crash", "straggler", "message_delay", "session_crash",
               "session_straggler", "store_corruption")

#: Kinds consumed by the gateway resilience layer rather than the
#: transport; ``target`` names the deployment and ``step``/``until``/
#: ``request`` count its *dispatches* (batches), not training steps.
GATEWAY_KINDS = ("session_crash", "session_straggler", "store_corruption")


class RankFailure(CommunicatorError):
    """A rank died mid-training (injected or real).

    Carries which rank crashed and the global step it was executing, so
    recovery code and reports can attribute the failure.
    """

    def __init__(self, rank: int, step: int):
        super().__init__(f"rank {rank} crashed at global step {step}")
        self.rank = rank
        self.step = step


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Field meaning depends on ``kind``:

    - ``rank_crash``: ``rank`` dies at global step ``step``.
    - ``straggler``: ``rank`` computes ``slowdown``x slower for steps in
      ``[step, until)`` (``until=None`` = forever).
    - ``message_delay``: collectives in ``category`` (``None`` = all)
      during ``[step, until)`` pay ``seconds`` extra fabric time each.
    - ``session_crash``: gateway deployment ``target``'s session dies at
      its ``request``-th batch dispatch (and stays dead until restarted).
    - ``session_straggler``: deployment ``target``'s dispatches in
      ``[step, until)`` (dispatch ordinals) take ``slowdown``x longer.
    - ``store_corruption``: the ``request``-th result-cache insertion for
      deployment ``target`` is corrupted in place after being stored.
    """

    kind: str
    step: int = 0
    until: int | None = None
    rank: int = 0
    slowdown: float = 1.0
    seconds: float = 0.0
    category: str | None = None
    request: int = 0
    target: str = ""

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"one of {FAULT_KINDS}")
        if self.step < 0 or self.rank < 0 or self.request < 0:
            raise ValueError(f"fault event fields must be >= 0: {self}")
        if self.until is not None and self.until <= self.step:
            raise ValueError(f"until must exceed step, got "
                             f"[{self.step}, {self.until})")
        if not (math.isfinite(self.slowdown) and math.isfinite(self.seconds)):
            raise ValueError(f"slowdown and seconds must be finite: {self}")
        if self.kind in ("straggler", "session_straggler") \
                and self.slowdown < 1.0:
            raise ValueError(f"straggler slowdown must be >= 1.0, "
                             f"got {self.slowdown}")
        if self.kind == "message_delay" and self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")
        if self.kind in GATEWAY_KINDS and not self.target:
            raise ValueError(f"{self.kind} events need target=<deployment "
                             f"name>: {self}")
        if any(c in self.target for c in ",=:"):
            raise ValueError(f"target may not contain ',', '=' or ':' "
                             f"(the compact-encoding delimiters), got "
                             f"{self.target!r}")

    # -- step-range helpers ---------------------------------------------
    def active_at(self, step: int) -> bool:
        """Whether a ranged event covers global ``step``."""
        return step >= self.step and (self.until is None or step < self.until)

    # -- compact string form (the ``RunSpec.faults`` encoding) ----------
    def encode(self) -> str:
        """``"kind:field=value,..."`` with only non-default fields."""
        parts = []
        for f in dataclasses.fields(self):
            if f.name == "kind":
                continue
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return self.kind + (":" + ",".join(parts) if parts else "")

    @classmethod
    def decode(cls, text: str) -> "FaultEvent":
        """Inverse of :meth:`encode`; raises ``ValueError`` on bad input."""
        kind, _, rest = str(text).partition(":")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs: dict = {"kind": kind}
        for item in filter(None, rest.split(",")):
            name, eq, raw = item.partition("=")
            if not eq or name not in fields or name == "kind":
                raise ValueError(f"bad fault event field {item!r} in {text!r}")
            if name in kwargs:
                raise ValueError(f"repeated fault event field {name!r} "
                                 f"in {text!r}")
            if name in ("category", "target"):
                kwargs[name] = raw
            elif name == "until":
                kwargs[name] = None if raw == "None" else int(raw)
            elif name in ("slowdown", "seconds"):
                kwargs[name] = float(raw)
            else:
                kwargs[name] = int(raw)
        return cls(**kwargs)


class FaultPlan:
    """An immutable, serializable schedule of fault events.

    Builder methods return a *new* plan, so schedules compose by
    chaining::

        plan = (FaultPlan(seed=7)
                .rank_crash(step=3, rank=1)
                .straggler(rank=2, slowdown=3.0))
    """

    def __init__(self, events: tuple = (), *, seed: int | str = 0):
        self.events: tuple[FaultEvent, ...] = tuple(
            ev if isinstance(ev, FaultEvent) else FaultEvent(**ev)
            for ev in events)
        self.seed = seed

    # -- builders -------------------------------------------------------
    def _with(self, event: FaultEvent) -> "FaultPlan":
        return FaultPlan(self.events + (event,), seed=self.seed)

    def rank_crash(self, step: int, rank: int = 0) -> "FaultPlan":
        return self._with(FaultEvent("rank_crash", step=step, rank=rank))

    def straggler(self, rank: int, slowdown: float, *, start_step: int = 0,
                  end_step: int | None = None) -> "FaultPlan":
        return self._with(FaultEvent("straggler", step=start_step,
                                     until=end_step, rank=rank,
                                     slowdown=slowdown))

    def message_delay(self, seconds: float, *, category: str | None = None,
                      start_step: int = 0,
                      end_step: int | None = None) -> "FaultPlan":
        return self._with(FaultEvent("message_delay", step=start_step,
                                     until=end_step, seconds=seconds,
                                     category=category))

    def session_crash(self, deployment: str, *,
                      at_dispatch: int = 0) -> "FaultPlan":
        """Deployment ``deployment``'s session dies at its
        ``at_dispatch``-th batch (and every later one until restarted)."""
        return self._with(FaultEvent("session_crash", target=str(deployment),
                                     request=at_dispatch))

    def session_straggler(self, deployment: str, slowdown: float, *,
                          start_dispatch: int = 0,
                          end_dispatch: int | None = None) -> "FaultPlan":
        """Deployment ``deployment``'s dispatches in ``[start_dispatch,
        end_dispatch)`` take ``slowdown``x their normal service time."""
        return self._with(FaultEvent("session_straggler",
                                     target=str(deployment),
                                     step=start_dispatch, until=end_dispatch,
                                     slowdown=slowdown))

    def store_corruption(self, deployment: str, *,
                         at_insert: int = 0) -> "FaultPlan":
        """The ``at_insert``-th result-cache entry stored for
        ``deployment`` is corrupted in place after insertion."""
        return self._with(FaultEvent("store_corruption",
                                     target=str(deployment),
                                     request=at_insert))

    @classmethod
    def randomized(cls, seed: int | str, *, world: int, steps: int,
                   crashes: int = 1, stragglers: int = 1,
                   max_slowdown: float = 4.0) -> "FaultPlan":
        """A seeded random schedule (an MTBF draw made reproducible).

        Crash steps and straggler ranks/slowdowns are drawn from a
        dedicated RNG stream, so the same seed always yields the same
        chaos scenario.
        """
        if world < 1 or steps < 1:
            raise ValueError("world and steps must be >= 1")
        rng = new_rng("fault-plan", seed)
        plan = cls(seed=seed)
        for _ in range(crashes):
            plan = plan.rank_crash(step=int(rng.integers(steps)),
                                   rank=int(rng.integers(world)))
        for _ in range(stragglers):
            plan = plan.straggler(rank=int(rng.integers(world)),
                                  slowdown=1.0 + float(rng.random())
                                  * (max_slowdown - 1.0))
        return plan

    # -- views ----------------------------------------------------------
    def transport_events(self) -> list[tuple[int, FaultEvent]]:
        """(index, event) pairs the transport layer injects."""
        return [(i, ev) for i, ev in enumerate(self.events)
                if ev.kind not in GATEWAY_KINDS]

    def gateway_events(self, deployment: str | None = None
                       ) -> list[tuple[int, FaultEvent]]:
        """(index, event) pairs the gateway resilience layer consumes,
        optionally filtered to one deployment ``target``."""
        return [(i, ev) for i, ev in enumerate(self.events)
                if ev.kind in GATEWAY_KINDS
                and (deployment is None or ev.target == str(deployment))]

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FaultPlan)
                and self.events == other.events and self.seed == other.seed)

    def __repr__(self) -> str:
        return (f"FaultPlan({[ev.encode() for ev in self.events]}, "
                f"seed={self.seed!r})")

    # -- serialisation --------------------------------------------------
    def to_spec(self) -> tuple[str, ...]:
        """Compact string tuple (the ``RunSpec.faults`` field)."""
        return tuple(ev.encode() for ev in self.events)

    @classmethod
    def from_spec(cls, spec, *, seed: int | str = 0) -> "FaultPlan":
        return cls(tuple(FaultEvent.decode(s) for s in spec), seed=seed)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "events": list(self.to_spec())}

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls.from_spec(d.get("events", ()), seed=d.get("seed", 0))


class FaultyTransport:
    """Wrap any transport; inject a :class:`FaultPlan` at its boundaries.

    Satisfies the :class:`~repro.runtime.transport.Transport` protocol,
    so ``ProcessGroup(FaultyTransport(SimTransport(4), plan))`` drops
    into every trainer unchanged.  The trainer reports its global step
    through :meth:`begin_step` (see ``DDPTrainer``); crash events then
    fire inside the doomed rank's next compute charge — or, as a
    backstop, inside the next collective — raising :class:`RankFailure`.

    ``fired`` is the set of event indices that already triggered; a
    recovery loop carries it across restarts so a crash does not refire
    on the replayed steps (see
    :func:`repro.training.recovery.train_with_recovery`).
    """

    def __init__(self, inner, plan: FaultPlan, *,
                 fired: set | None = None):
        self.inner = inner
        self.plan = plan
        self.fired: set[int] = set(fired or ())
        self._step = 0
        # The plan is immutable; snapshot its transport view once instead
        # of re-filtering it inside every hot-path charge.
        self._events = tuple(plan.transport_events())

    # -- fault triggers -------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Trainer hook: the global step about to execute."""
        self._step = int(step)
        inner_begin = getattr(self.inner, "begin_step", None)
        if inner_begin is not None:
            inner_begin(step)

    def _maybe_crash(self, rank: int | None) -> None:
        for i, ev in self._events:
            if (ev.kind == "rank_crash" and i not in self.fired
                    and self._step >= ev.step
                    and (rank is None or ev.rank == rank)):
                self.fired.add(i)
                raise RankFailure(ev.rank, self._step)

    def _delay_for(self, kind: str, category: str) -> float:
        total = 0.0
        for _, ev in self._events:
            if (ev.kind == kind and ev.active_at(self._step)
                    and ev.category in (None, category)):
                total += ev.seconds
        return total

    # -- Transport protocol ---------------------------------------------
    @property
    def world_size(self) -> int:
        return self.inner.world_size

    @property
    def stats(self):
        return self.inner.stats

    @property
    def now(self) -> float:
        return self.inner.now

    def elapsed_breakdown(self) -> dict[str, float]:
        return self.inner.elapsed_breakdown()

    def run_ranks(self, fn, *, parallel: bool = True) -> list:
        try:
            return self.inner.run_ranks(fn, parallel=parallel)
        except RankFailure as failure:
            # On a process-isolated fabric the crash fired in a child
            # whose copy of ``fired`` died with it; reconcile here so a
            # recovery loop does not refire the same event forever.
            for i, ev in self._events:
                if (ev.kind == "rank_crash" and i not in self.fired
                        and ev.rank == failure.rank
                        and self._step >= ev.step):
                    self.fired.add(i)
                    break
            raise

    def __getattr__(self, name: str):
        # Capability passthrough (attach_rank_buffers, begin_step,
        # compute_time, ...): trainers probe the transport with getattr, and
        # the wrapper must not mask what the wrapped fabric offers.
        return getattr(self.inner, name)

    def advance_compute(self, rank: int, seconds: float) -> None:
        self._maybe_crash(rank)
        for _, ev in self._events:
            if (ev.kind == "straggler" and ev.rank == rank
                    and ev.active_at(self._step)):
                seconds *= ev.slowdown
        self.inner.advance_compute(rank, seconds)

    def collective(self, kind: str, nbytes: int, category: str, *,
                   record_bytes: int | None = None, repeat: int = 1,
                   measured_seconds: float = 0.0) -> None:
        self._maybe_crash(None)
        delay = self._delay_for("message_delay", category)
        if delay:
            self.inner.charge(category, 0, delay, ops=0)
        self.inner.collective(kind, nbytes, category,
                              record_bytes=record_bytes, repeat=repeat,
                              measured_seconds=measured_seconds)

    def contended_fetch(self, total_bytes: int, messages_per_rank: int,
                        category: str) -> None:
        delay = self._delay_for("message_delay", category)
        if delay:
            self.inner.charge(category, 0, delay, ops=0)
        self.inner.contended_fetch(total_bytes, messages_per_rank, category)

    def charge(self, category: str, nbytes: int, seconds: float,
               ops: int = 1) -> None:
        self.inner.charge(category, nbytes, seconds, ops)

    def shutdown(self) -> None:
        if hasattr(self.inner, "shutdown"):
            self.inner.shutdown()

    def __repr__(self) -> str:
        return (f"FaultyTransport({type(self.inner).__name__}, "
                f"{len(self.plan)} events, fired={sorted(self.fired)})")
