"""Unit tests for the fault-injection layer (``repro.runtime.faults``).

The chaos *scenarios* (crash → resume → bitwise curve, gateway
fallback) live in ``tests/chaos/``; this module pins the mechanism:
plan serialization, event triggering at transport boundaries, recovery
pricing in the performance model, and ``RunSpec.faults`` validation.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import RunSpec
from repro.runtime import ProcessGroup, ProcessTransport
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultyTransport,
    RankFailure,
)
from repro.runtime.transport import SimTransport


def plan_crash_straggler() -> FaultPlan:
    return (FaultPlan(seed=3)
            .rank_crash(step=2, rank=1)
            .straggler(rank=0, slowdown=3.0, start_step=1, end_step=4)
            .message_delay(0.5, category="gradient", start_step=0)
            .session_crash("bay", at_dispatch=10))


class TestFaultPlan:
    def test_builders_are_immutable(self):
        base = FaultPlan(seed=1)
        grown = base.rank_crash(step=5)
        assert len(base) == 0 and len(grown) == 1
        assert grown.seed == 1

    def test_spec_round_trip(self):
        plan = plan_crash_straggler()
        spec = plan.to_spec()
        assert all(isinstance(s, str) for s in spec)
        back = FaultPlan.from_spec(spec, seed=plan.seed)
        assert back == plan

    def test_dict_round_trip_through_json(self):
        import json
        plan = plan_crash_straggler()
        back = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert back == plan

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("power_surge")
        with pytest.raises(ValueError, match="slowdown"):
            FaultEvent("straggler", slowdown=0.5)
        with pytest.raises(ValueError, match="until"):
            FaultEvent("message_delay", step=5, until=5)
        with pytest.raises(ValueError, match="bad fault event field"):
            FaultEvent.decode("rank_crash:bogus=1")

    @pytest.mark.parametrize("text", [
        "straggler:slowdown=nan,rank=1",
        "straggler:slowdown=inf",
        "message_delay:seconds=nan",
        "message_delay:seconds=inf",
        "rank_crash:seconds=-inf",
    ])
    def test_non_finite_floats_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            FaultEvent.decode(text)

    def test_repeated_field_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            FaultEvent.decode("rank_crash:step=1,step=2")

    @pytest.mark.parametrize("kwargs, message", [
        (dict(kind="rank_crash", step=-1), ">= 0"),
        (dict(kind="rank_crash", rank=-1), ">= 0"),
        (dict(kind="session_crash", target="bay", request=-1), ">= 0"),
        (dict(kind="straggler", step=3, until=2, slowdown=2.0), "until"),
        (dict(kind="message_delay", seconds=-0.1), "seconds"),
    ], ids=["step", "rank", "request", "until", "delay"])
    def test_out_of_range_fields_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FaultEvent(**kwargs)

    @pytest.mark.parametrize("probe, active", [
        (1, False), (2, True), (4, True), (5, False)],
        ids=["before", "first", "last", "until"])
    def test_active_range_is_half_open(self, probe, active):
        assert FaultEvent("straggler", step=2, until=5,
                          slowdown=2.0).active_at(probe) is active

    def test_open_ended_range_never_closes(self):
        event = FaultEvent("message_delay", step=2, seconds=0.1)
        assert not event.active_at(1)
        assert event.active_at(2) and event.active_at(10**9)

    @settings(max_examples=40, deadline=None)
    @given(event=st.builds(
        FaultEvent,
        kind=st.sampled_from(FAULT_KINDS),
        step=st.integers(0, 9),
        until=st.none() | st.integers(10, 20),
        rank=st.integers(0, 3),
        # a field at its default is left out of the encoding
        slowdown=st.just(1.0) | st.floats(1.0, 1e308),
        seconds=st.just(0.0) | st.floats(0.0, 1e308),
        # categories may hold '=': some look like a field, one ','
        # away from being decoded as one
        category=st.none() | st.sampled_from(
            ["gradient", "seconds=nan", "slowdown=nan", "step=3"]),
        target=st.just("bay")))
    @example(event=FaultEvent("rank_crash", category="seconds=nan"))
    def test_edited_encodings_round_trip_or_raise(self, event):
        """Property: every truncation and single-character edit of a
        valid encoding decodes to an event that survives another
        encode/decode unchanged, or raises ``ValueError``."""
        text = event.encode()
        alphabet = ",=:.-+ 0123456789nafie"
        edits = {text[:i] for i in range(len(text) + 1)}  # with text itself
        for i in range(len(text) + 1):
            edits.add(text[:i] + text[i + 1:])
            for c in alphabet:
                edits.add(text[:i] + c + text[i:])
                edits.add(text[:i] + c + text[i + 1:])
        bad = []
        for edited in sorted(edits):
            try:
                decoded = FaultEvent.decode(edited)
            except ValueError:
                continue
            if FaultEvent.decode(decoded.encode()) != decoded:
                bad.append(edited)
        assert bad == []

    def test_views_split_by_layer(self):
        plan = plan_crash_straggler()
        transport_kinds = {ev.kind for _, ev in plan.transport_events()}
        gateway_kinds = {ev.kind for _, ev in plan.gateway_events()}
        assert "session_crash" not in transport_kinds
        assert gateway_kinds == {"session_crash"}

    def test_randomized_is_deterministic(self):
        a = FaultPlan.randomized(7, world=4, steps=20)
        b = FaultPlan.randomized(7, world=4, steps=20)
        c = FaultPlan.randomized(8, world=4, steps=20)
        assert a == b
        assert a != c
        kinds = [ev.kind for ev in a.events]
        assert kinds.count("rank_crash") == 1
        assert kinds.count("straggler") == 1

    def test_randomized_needs_a_world_and_steps(self):
        for kw in (dict(world=0, steps=5), dict(world=2, steps=0)):
            with pytest.raises(ValueError, match=">= 1"):
                FaultPlan.randomized(1, **kw)


class TestFaultyTransport:
    def make(self, plan, world=2):
        return FaultyTransport(SimTransport(world), plan)

    def test_satisfies_transport_protocol(self):
        from repro.runtime.transport import Transport
        t = self.make(FaultPlan())
        assert isinstance(t, Transport)
        # as_process_group accepts it like any other fabric.
        from repro.runtime.process_group import as_process_group
        assert as_process_group(t).world_size == 2

    def test_crash_fires_once_in_doomed_ranks_compute(self):
        t = self.make(FaultPlan().rank_crash(step=2, rank=1))
        for step in range(2):
            t.begin_step(step)
            t.advance_compute(0, 1.0)
            t.advance_compute(1, 1.0)
        t.begin_step(2)
        t.advance_compute(0, 1.0)          # healthy rank keeps computing
        with pytest.raises(RankFailure) as exc:
            t.advance_compute(1, 1.0)
        assert exc.value.rank == 1 and exc.value.step == 2
        assert t.fired == {0}
        # Already-fired events never refire (the recovery-replay contract).
        t.advance_compute(1, 1.0)

    def test_crash_backstop_fires_in_collective(self):
        t = self.make(FaultPlan().rank_crash(step=1, rank=0))
        t.begin_step(1)
        with pytest.raises(RankFailure):
            t.collective("allreduce", 64, "gradient")

    def test_straggler_slows_only_its_rank_in_range(self):
        t = self.make(FaultPlan().straggler(rank=1, slowdown=4.0,
                                            start_step=1, end_step=2))
        t.begin_step(0)
        t.advance_compute(1, 1.0)
        assert t.inner.clocks[1].now == 1.0          # before range: normal
        t.begin_step(1)
        t.advance_compute(0, 1.0)
        t.advance_compute(1, 1.0)
        assert t.inner.clocks[0].now == 1.0          # peer unaffected
        assert t.inner.clocks[1].now == 5.0          # 1 + 4x1
        t.begin_step(2)
        t.advance_compute(1, 1.0)
        assert t.inner.clocks[1].now == 6.0          # after range: normal

    def test_message_delay_charges_fabric_time(self):
        clean = ProcessGroup.sim(2)
        faulty = ProcessGroup(self.make(
            FaultPlan().message_delay(0.25, category="gradient")))
        payload = [np.ones(8, np.float32)] * 2
        clean.allreduce(payload, category="gradient")
        faulty.allreduce(payload, category="gradient")
        extra = faulty.now - clean.now
        assert extra == pytest.approx(0.25)
        # Bytes are untouched: a delay costs time, not traffic.
        assert (clean.stats.bytes_by_category
                == faulty.stats.bytes_by_category)

    @pytest.mark.parametrize("inner", [SimTransport, ProcessTransport],
                             ids=["sim", "process"])
    @pytest.mark.parametrize("category, delayed", [
        ("data", True), ("gradient", False)], ids=["match", "other"])
    def test_delay_reaches_data_plane_fetches(self, inner, category,
                                              delayed):
        """A delay on the ``data`` category slows the contended fetches
        baseline DDP makes (the only data-plane traffic), and only
        those; the fetched bytes are charged once either way."""
        faulty = FaultyTransport(
            inner(2), FaultPlan().message_delay(0.5, category=category))
        faulty.contended_fetch(4096, 1, "data")
        clean = inner(2)
        clean.contended_fetch(4096, 1, "data")
        extra = (faulty.stats.time_by_category["data"]
                 - clean.stats.time_by_category["data"])
        assert extra == pytest.approx(0.5 if delayed else 0.0)
        assert faulty.stats.bytes_by_category == {"data": 4096}

    def test_delay_ignores_other_categories(self):
        faulty = self.make(FaultPlan().message_delay(9.0, category="data"))
        faulty.collective("allreduce", 64, "gradient")
        assert faulty.now < 9.0


class TestServingFaultKinds:
    """The gateway-side event kinds added for the self-healing serving
    layer: compact encoding, target validation, and the view split."""

    def gateway_plan(self):
        return (FaultPlan(seed=5)
                .session_crash("bay", at_dispatch=3)
                .session_straggler("bay", 2.5, start_dispatch=1,
                                   end_dispatch=4)
                .store_corruption("standby", at_insert=2)
                .rank_crash(step=1))

    def test_builders_encode_compactly(self):
        spec = self.gateway_plan().to_spec()
        assert spec[0] == "session_crash:request=3,target=bay"
        assert spec[1] == ("session_straggler:step=1,until=4,"
                          "slowdown=2.5,target=bay")
        assert spec[2] == "store_corruption:request=2,target=standby"

    def test_spec_round_trip_with_targets(self):
        plan = self.gateway_plan()
        assert FaultPlan.from_spec(plan.to_spec(), seed=5) == plan

    def test_gateway_events_filter_by_deployment(self):
        plan = self.gateway_plan()
        assert [i for i, _ in plan.gateway_events()] == [0, 1, 2]
        assert [i for i, _ in plan.gateway_events("bay")] == [0, 1]
        assert [i for i, _ in plan.gateway_events("standby")] == [2]
        assert [i for i, _ in plan.gateway_events("nope")] == []
        # the transport never consumes serving-side events
        assert [ev.kind for _, ev in plan.transport_events()] \
            == ["rank_crash"]

    def test_target_is_required(self):
        for kind in ("session_crash", "session_straggler",
                     "store_corruption"):
            with pytest.raises(ValueError, match="target"):
                FaultEvent(kind)

    def test_target_rejects_encoding_delimiters(self):
        for bad in ("a,b", "a=b", "a:b"):
            with pytest.raises(ValueError, match="target"):
                FaultEvent("session_crash", target=bad)

    def test_session_straggler_slowdown_validated(self):
        with pytest.raises(ValueError, match="slowdown"):
            FaultPlan().session_straggler("bay", 0.5)

    @pytest.mark.parametrize("plan", [
        FaultPlan().session_crash("bay"),
        FaultPlan().session_straggler("bay", 8.0),
        FaultPlan().store_corruption("bay")],
        ids=["session_crash", "session_straggler", "store_corruption"])
    def test_transport_never_fires_gateway_events(self, plan):
        """Wrapping a fabric in a plan of gateway events changes no
        clock, byte or step of training: the transport does not see
        them, which is why a training spec refuses them."""
        clean = SimTransport(2)
        faulty = FaultyTransport(SimTransport(2), plan)
        for fabric in (clean, faulty):
            for step in range(4):
                if fabric is faulty:
                    fabric.begin_step(step)
                fabric.advance_compute(0, 1.0)
                fabric.advance_compute(1, 2.0)
                fabric.collective("allreduce", 256, "gradient")
                fabric.contended_fetch(128, 1, "data")
        assert [c.now for c in faulty.inner.clocks] \
            == [c.now for c in clean.clocks]
        assert (faulty.stats.bytes_by_category
                == clean.stats.bytes_by_category)
        assert faulty.fired == set()


class TestRunSpecFaults:
    def test_faults_require_distributed_strategy(self):
        with pytest.raises(ValueError, match="distributed strategy"):
            RunSpec(dataset="pems-bay", faults=("rank_crash:step=1",))

    def test_faults_validated_against_world_size(self):
        with pytest.raises(ValueError, match="world_size"):
            RunSpec(dataset="pems-bay", strategy="dist-index", world_size=2,
                    faults=("rank_crash:step=1,rank=5",))

    @pytest.mark.parametrize("event", [
        "meteor_strike:step=1",
        "message_drop:seconds=0.5"], ids=["meteor_strike", "message_drop"])
    def test_bad_event_rejected_at_construction(self, event):
        """``message_drop`` is not a fault kind: no trainer sends
        point-to-point messages, so a training spec holding one would
        run fault-free."""
        with pytest.raises(ValueError, match="unknown fault kind"):
            RunSpec(dataset="pems-bay", strategy="dist-index", world_size=2,
                    faults=(event,))

    @pytest.mark.parametrize("event", [
        "session_crash:target=bay,request=1",
        "session_straggler:target=bay,slowdown=2.0",
        "store_corruption:target=bay"])
    def test_gateway_events_refused(self, event):
        """The transport never injects gateway events, so a training
        chaos run holding one would run fault-free; it fails at
        construction and names where the event belongs."""
        with pytest.raises(ValueError,
                           match=r"build_gateway\(fault_plan=\.\.\.\)"):
            RunSpec(dataset="pems-bay", scale="tiny", strategy="dist-index",
                    world_size=2, faults=(event,))

    @pytest.mark.parametrize("event", [
        "rank_crash:step=1,rank=1",
        "straggler:rank=1,slowdown=2.0",
        "message_delay:seconds=0.1,category=gradient"])
    def test_transport_events_accepted(self, event):
        """Every kind the transport injects stays a valid training
        fault; the refusal is for gateway kinds only."""
        spec = RunSpec(dataset="pems-bay", scale="tiny",
                       strategy="dist-index", world_size=2,
                       faults=(event,))
        plan = FaultPlan.from_spec(spec.faults)
        assert [ev.encode() for _, ev in plan.transport_events()] \
            == [event]
        assert plan.gateway_events() == []

    def test_lists_normalise_to_tuples(self):
        spec = RunSpec(dataset="pems-bay", strategy="dist-index",
                       world_size=2, faults=["rank_crash:step=1,rank=1"])
        assert spec.faults == ("rank_crash:step=1,rank=1",)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_empty_schedule_on_single_is_no_schedule(self):
        assert RunSpec("pems-bay", faults=[]).faults is None

    def test_empty_schedule_equals_none_and_round_trips(self):
        kw = dict(dataset="pems-bay", strategy="dist-index", world_size=2)
        none = RunSpec(**kw)
        for empty in ((), []):
            spec = RunSpec(**kw, faults=empty)
            assert spec == none and hash(spec) == hash(none)
            assert spec.to_dict() == none.to_dict()
            assert RunSpec.from_dict(spec.to_dict()) == none


class TestRecoveryPricing:
    @pytest.fixture(scope="class")
    def model(self):
        from repro.datasets.catalog import CATALOG
        from repro.training.perfmodel import TrainingPerfModel, pgt_dcrnn_perf
        spec = CATALOG["pems-bay"]
        perf = pgt_dcrnn_perf(spec.num_nodes, spec.horizon,
                              spec.train_features)
        return TrainingPerfModel(spec, perf, batch_size=64)

    def test_breakdown_unchanged_without_mtbf(self, model):
        br = model.epoch_breakdown("dist-index", 8)
        assert br.recovery == 0.0

    def test_recovery_grows_with_failure_rate(self, model):
        often = model.epoch_breakdown("dist-index", 8, mtbf_hours=1.0,
                                      checkpoint_every_steps=50)
        rarely = model.epoch_breakdown("dist-index", 8, mtbf_hours=100.0,
                                       checkpoint_every_steps=50)
        assert often.recovery > rarely.recovery > 0.0
        assert often.total > model.epoch_breakdown("dist-index", 8).total

    def test_overhead_pieces_are_consistent(self, model):
        o = model.recovery_overhead("dist-index", 8, mtbf_hours=24.0,
                                    checkpoint_every_steps=10)
        expected = (o["checkpoint_seconds_per_epoch"]
                    + o["expected_failures_per_epoch"]
                    * o["seconds_per_failure"])
        assert o["recovery_seconds_per_epoch"] == pytest.approx(expected)
        assert 0.0 < o["overhead_fraction"] < 1.0

    def test_checkpoint_cadence_tradeoff(self, model):
        # Checkpointing every step pays writes; rarely pays lost work —
        # the model must price both directions.
        eager = model.recovery_overhead("dist-index", 8, mtbf_hours=24.0,
                                        checkpoint_every_steps=1)
        lazy = model.recovery_overhead("dist-index", 8, mtbf_hours=24.0,
                                       checkpoint_every_steps=10_000)
        assert (eager["checkpoint_seconds_per_epoch"]
                > lazy["checkpoint_seconds_per_epoch"])
        assert (eager["lost_work_seconds_per_failure"]
                < lazy["lost_work_seconds_per_failure"])

    def test_validation(self, model):
        with pytest.raises(ValueError, match="mtbf"):
            model.recovery_overhead("dist-index", 8, mtbf_hours=0.0,
                                    checkpoint_every_steps=1)
        with pytest.raises(ValueError, match="checkpoint_every_steps"):
            model.recovery_overhead("dist-index", 8, mtbf_hours=1.0,
                                    checkpoint_every_steps=0)
