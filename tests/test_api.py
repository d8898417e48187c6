"""Tests for the declarative ``repro.api`` pipeline: registries, RunSpec
validation/round-tripping, the BatchSource protocol, and the run() executor."""

import dataclasses

import numpy as np
import pytest

from repro import api
from repro.api import (
    BATCHINGS,
    DATASETS,
    MODELS,
    OPTIMIZERS,
    BatchSource,
    Registry,
    RunSpec,
    Scale,
    ensure_batch_source,
    run,
)

#: Sub-tiny preset so the executor smoke tests stay fast; registered so
#: specs can name it.
UNIT = Scale("unit-test", nodes=6, entries=120, epochs=2, hidden_dim=4,
             batch_size=8, horizon=4)
api.resolve_name(UNIT)


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")

        @reg.register("a")
        def build():
            return 1

        assert reg.get("a") is build
        assert "a" in reg and reg.names() == ["a"] and len(reg) == 1

    def test_unknown_key_lists_alternatives(self):
        reg = Registry("thing")
        reg.register("known", object())
        with pytest.raises(KeyError, match="unknown thing 'nope'.*known"):
            reg.get("nope")

    def test_duplicate_rejected_unless_overwrite(self):
        reg = Registry("thing")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", 2)
        reg.register("a", 2, overwrite=True)
        assert reg.get("a") == 2

    def test_invalid_key(self):
        with pytest.raises(ValueError):
            Registry("thing").register("", 1)

    def test_default_entries_present(self):
        assert "pgt-dcrnn" in api.list_models()
        assert "st-llm" in api.list_models()
        assert api.list_batchings() == ["base", "index", "index-f16"]
        assert "pems-bay" in api.list_datasets()
        assert set(api.list_optimizers()) >= {"adam", "sgd"}

    def test_registries_back_the_listings(self):
        assert api.list_models() == MODELS.names()
        assert api.list_batchings() == BATCHINGS.names()
        assert api.list_datasets() == DATASETS.names()
        assert api.list_optimizers() == OPTIMIZERS.names()


class TestScaleResolution:
    def test_adhoc_names_are_last_write_wins(self):
        first = Scale("rerun-me", nodes=6, entries=120, epochs=1,
                      hidden_dim=4, batch_size=8, horizon=4)
        tweaked = Scale("rerun-me", nodes=6, entries=120, epochs=2,
                        hidden_dim=4, batch_size=8, horizon=4)
        assert api.resolve_name(first) == "rerun-me"
        assert api.resolve_name(tweaked) == "rerun-me"  # rerun workflows
        assert api.get_scale("rerun-me") == tweaked

    def test_builtin_names_are_immutable(self):
        impostor = Scale("tiny", nodes=64, entries=4000, epochs=30,
                         hidden_dim=32, batch_size=32)
        with pytest.raises(ValueError, match="builtin preset"):
            api.resolve_name(impostor)
        assert api.get_scale("tiny").nodes == 8

    def test_resolving_builtin_itself_is_fine(self):
        assert api.resolve_name(api.TINY) == "tiny"


class TestRunSpec:
    def test_dict_round_trip(self):
        spec = RunSpec(dataset="pems-bay", model="a3tgcn", batching="base",
                       scale="small", seed=3, lr=0.005,
                       strategy="dist-index", world_size=4, shuffle="batch",
                       epochs=7)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(KeyError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"dataset": "pems-bay", "bogus": 1})

    def test_frozen(self):
        spec = RunSpec(dataset="pems-bay")
        with pytest.raises(AttributeError):
            spec.model = "tgcn"

    def test_replace_revalidates(self):
        spec = RunSpec(dataset="pems-bay")
        assert spec.replace(model="tgcn").model == "tgcn"
        with pytest.raises(KeyError):
            spec.replace(model="resnet")

    @pytest.mark.parametrize("bad", [
        dict(dataset="no-such-data"),
        dict(dataset="pems-bay", model="no-such-model"),
        dict(dataset="pems-bay", batching="gpu"),
        dict(dataset="pems-bay", optimizer="lion"),
        dict(dataset="pems-bay", scale="huge"),
    ])
    def test_unknown_registry_keys_raise(self, bad):
        with pytest.raises(KeyError):
            RunSpec(**bad)

    @pytest.mark.parametrize("bad", [
        dict(dataset="pems-bay", strategy="pipeline"),
        dict(dataset="pems-bay", world_size=0),
        dict(dataset="pems-bay", strategy="single", world_size=2),
        dict(dataset="pems-bay", shuffle="sorted"),
        dict(dataset="pems-bay", epochs=0),
        dict(dataset="pems-bay", lr=-1.0),
    ])
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValueError):
            RunSpec(**bad)

    def test_backend_and_socket_are_ordinary_invalid_input(self):
        """No selector, no special case: the dataclass, the unknown-field
        check and the transport check reject them like any other typo."""
        assert len(dataclasses.fields(RunSpec)) == 13
        with pytest.raises(TypeError, match="backend"):
            RunSpec(dataset="pems-bay", backend="numpy")
        with pytest.raises(KeyError, match=r"unknown RunSpec fields "
                                           r"\['backend'\]"):
            RunSpec.from_dict({"dataset": "pems-bay", "backend": "auto"})
        with pytest.raises(ValueError, match=r"\('sim', 'thread', "
                                             r"'process'\), got 'socket'"):
            RunSpec(dataset="pems-bay", strategy="dist-index", world_size=2,
                    transport="socket")


class TestBatchSourceProtocol:
    def test_loaders_satisfy_protocol(self):
        spec = RunSpec(dataset="pems-bay")
        result = run(spec, scale=UNIT)
        for loader in (result.artifacts.loaders.train,
                       result.artifacts.loaders.val,
                       result.artifacts.loaders.test):
            assert isinstance(loader, BatchSource)
            assert ensure_batch_source(loader) is loader

    def test_non_source_rejected_with_missing_attrs(self):
        with pytest.raises(TypeError, match="batch_at"):
            ensure_batch_source(object())

    def test_trainer_validates_loaders(self):
        from repro.training import Trainer
        with pytest.raises(TypeError, match="BatchSource"):
            Trainer(None, None, train_loader=[1, 2, 3])


class TestRun:
    @pytest.fixture(scope="class")
    def results(self):
        """Base and index runs of the same scenario."""
        out = {}
        for mode in ("base", "index"):
            spec = RunSpec(dataset="pems-bay", model="pgt-dcrnn",
                           batching=mode, scale="unit-test", seed=11)
            out[mode] = run(spec, scale=UNIT)
        return out

    def test_requires_runspec(self):
        with pytest.raises(TypeError, match="RunSpec"):
            run({"dataset": "pems-bay"})

    def test_result_shape(self, results):
        r = results["index"]
        assert r.epochs_run == UNIT.epochs
        assert len(r.val_curve) == len(r.train_curve) == r.epochs_run
        assert np.isfinite(r.best_val_mae)
        assert r.best_val_mae == min(r.val_curve)
        assert r.final_train_loss == r.train_curve[-1]
        assert r.runtime_seconds > 0
        assert r.peak_bytes > 0
        assert r.to_dict()["spec"]["batching"] == "index"
        assert "artifacts" not in r.to_dict()

    def test_base_and_index_modes_identical_accuracy(self, results):
        """The paper's core equivalence: both modes consume the same
        snapshots, so validation curves match exactly."""
        np.testing.assert_allclose(results["base"].val_curve,
                                   results["index"].val_curve, rtol=1e-9)

    def test_index_mode_uses_less_memory(self, results):
        assert results["index"].peak_bytes < results["base"].peak_bytes

    def test_deterministic_in_seed(self, results):
        spec = RunSpec(dataset="pems-bay", model="pgt-dcrnn",
                       batching="index", scale="unit-test", seed=11)
        again = run(spec, scale=UNIT)
        np.testing.assert_array_equal(again.val_curve,
                                      results["index"].val_curve)

    def test_distributed_strategy_runs(self):
        spec = RunSpec(dataset="pems-bay", strategy="dist-index",
                       world_size=2, scale="unit-test")
        result = run(spec, scale=UNIT)
        assert np.isfinite(result.best_val_mae)
        # Dist-index shuffling is communication-free: gradient traffic only.
        stats = result.artifacts.trainer.comm.stats.bytes_by_category
        assert "data" not in stats and stats["gradient"] > 0

    def test_acceptance_example(self):
        """The ISSUE's acceptance line, verbatim keys, at tiny scale."""
        result = run(RunSpec(dataset="pems-bay", model="pgt-dcrnn",
                             batching="index", scale="tiny"))
        assert np.isfinite(result.best_val_mae)
        assert result.epochs_run == 4
