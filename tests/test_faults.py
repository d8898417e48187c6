"""Unit tests for the fault-injection layer (``repro.runtime.faults``).

The chaos *scenarios* (crash → resume → bitwise curve, serving
failover) live in ``tests/chaos/``; this module pins the mechanism:
plan serialization, event triggering at transport boundaries, recovery
pricing in the performance model, and ``RunSpec.faults`` validation.
"""

import numpy as np
import pytest

from repro.api import RunSpec
from repro.runtime import ProcessGroup
from repro.runtime.faults import (
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
            .worker_crash(shard=1, at_request=10))


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

    def test_views_split_by_layer(self):
        plan = plan_crash_straggler()
        transport_kinds = {ev.kind for _, ev in plan.transport_events()}
        serving_kinds = {ev.kind for _, ev in plan.serving_events()}
        assert "worker_crash" not in transport_kinds
        assert serving_kinds == {"worker_crash"}

    def test_randomized_is_deterministic(self):
        a = FaultPlan.randomized(7, world=4, steps=20)
        b = FaultPlan.randomized(7, world=4, steps=20)
        c = FaultPlan.randomized(8, world=4, steps=20)
        assert a == b
        assert a != c
        kinds = [ev.kind for ev in a.events]
        assert kinds.count("rank_crash") == 1
        assert kinds.count("straggler") == 1


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

    def test_message_drop_charges_timeout_and_retransmits(self):
        faulty = self.make(FaultPlan().message_drop(0.5, category="data"))
        before = faulty.now
        faulty.p2p(0, 1, 1024, "data")
        assert faulty.dropped_messages == 1
        assert faulty.now - before > 0.5             # timeout + retransmit
        assert faulty.stats.bytes_by_category["data"] == 1024

    def test_delay_ignores_other_categories(self):
        faulty = self.make(FaultPlan().message_delay(9.0, category="data"))
        faulty.collective("allreduce", 64, "gradient")
        assert faulty.now < 9.0

    def test_drop_byte_accounting_pins(self):
        """A dropped send costs exactly the timeout in time and exactly
        one copy in bytes — the retransmission moves the payload through
        the real fabric, the lost copy never counts as traffic."""
        clean = SimTransport(2)
        clean.p2p(0, 1, 4096, "data")
        transfer = clean.now
        faulty = self.make(FaultPlan().message_drop(0.5, category="data"))
        faulty.p2p(0, 1, 4096, "data")
        assert faulty.now == pytest.approx(0.5 + transfer)
        assert faulty.stats.bytes_by_category["data"] == 4096  # not doubled
        assert faulty.dropped_messages == 1

    def test_self_and_empty_sends_never_drop(self):
        faulty = self.make(FaultPlan().message_drop(0.5, category="data"))
        faulty.p2p(1, 1, 4096, "data")      # local move: nothing on the wire
        faulty.p2p(0, 1, 0, "data")         # empty: nothing to lose
        assert faulty.dropped_messages == 0

    def test_every_matching_send_drops_once(self):
        faulty = self.make(FaultPlan().message_drop(0.25, category="data"))
        for _ in range(3):
            faulty.p2p(0, 1, 128, "data")
        assert faulty.dropped_messages == 3
        assert faulty.stats.bytes_by_category["data"] == 3 * 128


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


class TestRunSpecFaults:
    def test_faults_require_distributed_strategy(self):
        with pytest.raises(ValueError, match="distributed strategy"):
            RunSpec(dataset="pems-bay", faults=("rank_crash:step=1",))

    def test_faults_validated_against_world_size(self):
        with pytest.raises(ValueError, match="world_size"):
            RunSpec(dataset="pems-bay", strategy="dist-index", world_size=2,
                    faults=("rank_crash:step=1,rank=5",))

    def test_bad_event_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            RunSpec(dataset="pems-bay", strategy="dist-index", world_size=2,
                    faults=("meteor_strike:step=1",))

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
