"""The inference session: a restored model behind preallocated buffers.

A :class:`ModelSession` is the serving-side counterpart of the
:class:`~repro.training.trainer.Trainer`: it owns a trained model locked
into eval mode, the scaler that standardized its training data, and one
persistent input-staging buffer, and answers ``predict`` calls under
``no_grad`` with zero per-request staging allocation (the forward pass
itself runs through the fused PR-2 kernels, which pool their interior
buffers).  It is the one place that knows how a batch reaches the model:
the sharded session inherits its staging, forward and store rule.

Sessions are built either from live training artifacts or — the online
path — from a **self-describing checkpoint** written by
``save_checkpoint(..., spec=..., scaler=...)``: the embedded
:class:`~repro.api.spec.RunSpec` names the dataset/model/scale registry
keys, which deterministically reconstruct the sensor graph and model
skeleton before the parameters are restored.  ``serve(...,
server="local")`` and :meth:`ModelSession.from_checkpoint` both build
through :func:`build_local_session`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.kernels.precision import resolve_store_dtype
from repro.nn.module import assert_inference_mode
from repro.preprocessing.scaler import StandardScaler
from repro.serving.cache import FeatureStore, has_time_feature
from repro.utils.errors import ShapeError


class ModelSession:
    """A trained model prepared for online inference.

    Parameters
    ----------
    model:
        a trained :class:`~repro.models.base.STModel`; switched to eval
        mode here and expected to stay there (``predict`` asserts it).
    scaler:
        the scaler fitted on the training split; used to interpret
        standardized windows and invert predictions to original units.
    spec:
        optional :class:`~repro.api.spec.RunSpec` this model came from
        (kept for introspection / re-serialisation).

    A session has no batch cap (that is the queue's, see
    :class:`~repro.serving.queue.MicroBatchQueue`): its staging buffer
    grows to the largest batch it is handed and is reused from then on.
    """

    def __init__(self, model: Any, scaler: StandardScaler | None = None, *,
                 spec: Any = None):
        self.model = model.eval()
        self.scaler = scaler
        self.spec = spec
        self.horizon = int(model.horizon)
        self.num_nodes = int(model.num_nodes)
        self.in_features = int(model.in_features)
        self.store: FeatureStore | None = None
        # The dataset-free half of the time-of-day rule; builders that
        # know the dataset overwrite it.
        self.add_time_feature = has_time_feature(None, self.in_features)
        self._in_buf = np.empty(
            (0, self.horizon, self.num_nodes, self.in_features),
            dtype=np.float32)
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Construction from a self-describing checkpoint
    # ------------------------------------------------------------------
    @staticmethod
    def from_checkpoint(path: str, *, store_capacity: int | None = None,
                        store_dtype="float32") -> "ModelSession":
        """Restore model + scaler + spec from ``path`` into a local session.

        The checkpoint must have been written with ``spec=`` (and, for a
        feature store and original-unit forecasts, ``scaler=``).  The
        model skeleton is rebuilt through the ``repro.api`` registries
        from the embedded spec — dataset generation is deterministic in
        the spec's seed, so the sensor graph (and therefore the diffusion
        supports) match the training run exactly.  The store is attached
        by :func:`build_local_session`, as for ``serve(..., server=
        "local")``.
        """
        # Imported lazily: repro.api imports this module's package.
        from repro.api.serving import restore_checkpoint

        model, scaler, spec, ds = restore_checkpoint(path)
        return build_local_session(model, scaler, ds, spec,
                                   store_capacity=store_capacity,
                                   store_dtype=store_dtype)

    # ------------------------------------------------------------------
    # Streaming observations
    # ------------------------------------------------------------------
    def new_store(self, capacity: int | None = None, *, dtype="float32",
                  num_nodes: int | None = None) -> FeatureStore:
        """A fresh feature store for this model's input rows: ``num_nodes``
        sensors (all by default), the session's time-of-day rule.

        ``capacity`` defaults to four horizons and must cover one: a
        smaller ring can never hold a window, however much is ingested.
        ``dtype="float16"`` halves the ring; windows still materialise
        into float32 buffers, so model math is unchanged.
        """
        if self.scaler is None:
            raise RuntimeError("session has no scaler; a feature store "
                               "standardizes with it")
        capacity = capacity or 4 * self.horizon
        if capacity < self.horizon:
            raise ValueError(
                f"store capacity {capacity} is below the model horizon "
                f"{self.horizon}: no window could ever be read from it")
        return FeatureStore(
            self.scaler,
            num_nodes=self.num_nodes if num_nodes is None else num_nodes,
            raw_features=self.in_features - int(self.add_time_feature),
            capacity=capacity, add_time_feature=self.add_time_feature,
            dtype=resolve_store_dtype(dtype) or np.float32)

    def attach_store(self, store: FeatureStore) -> "ModelSession":
        """Attach the sliding-window feature store backing ``ingest``."""
        if store.num_nodes != self.num_nodes or \
                store.num_features != self.in_features:
            raise ShapeError(
                f"store shape [{store.num_nodes} nodes x "
                f"{store.num_features} features] does not match model "
                f"[{self.num_nodes} x {self.in_features}]")
        self.store = store
        return self

    def ingest(self, values: np.ndarray, timestamp_minutes: float) -> None:
        """Feed one raw observation row into the attached feature store."""
        if self.store is None:
            raise RuntimeError("no FeatureStore attached; call attach_store "
                               "or build the session with a dataset")
        self.store.ingest(values, timestamp_minutes)

    def current_window(self) -> np.ndarray:
        """The latest model-input window materialised from the store."""
        if self.store is None:
            raise RuntimeError("no FeatureStore attached")
        return self.store.window(self.horizon)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def stage(self, batch: int) -> np.ndarray:
        """A ``[batch, horizon, nodes, features]`` view of the persistent
        staging buffer, grown first if ``batch`` is the largest yet.  Fill
        it and hand it to :meth:`predict`, which recognises the view and
        skips its staging copy — the seam the
        :class:`~repro.serving.service.ForecastService` materialises
        micro-batches through."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if batch > len(self._in_buf):
            self._in_buf = np.empty((batch,) + self._in_buf.shape[1:],
                                    dtype=np.float32)
        return self._in_buf[:batch]

    def _staged(self, windows: np.ndarray) -> np.ndarray:
        """``windows`` checked and in the staging buffer (copied unless
        they are already a :meth:`stage` view)."""
        windows = np.asarray(windows)
        if windows.ndim == 3:
            windows = windows[None]
        expected = (self.horizon, self.num_nodes, self.in_features)
        if windows.ndim != 4 or windows.shape[1:] != expected:
            raise ShapeError(f"expected [batch, {expected[0]}, {expected[1]}, "
                             f"{expected[2]}] windows, got {windows.shape}")
        if (windows.base is self._in_buf
                and windows.ctypes.data == self._in_buf.ctypes.data):
            return windows
        staged = self.stage(windows.shape[0])
        np.copyto(staged, windows, casting="same_kind")
        return staged

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """The model on ``x`` under ``no_grad``, eval mode asserted, so
        serving can never extend the autograd graph or trip
        training-only behaviour."""
        with no_grad():
            assert_inference_mode(self.model)
            return self.model(Tensor(x)).data

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Forward ``[batch, horizon, nodes, features]`` standardized
        windows; returns ``[batch, horizon, nodes, 1]`` standardized
        predictions.  The input is staged through the session's
        persistent buffer (no per-request allocation)."""
        staged = self._staged(windows)
        out = self._forward(staged)
        self.requests_served += len(staged)
        return out

    def forecast_current(self) -> np.ndarray:
        """Predict from the attached store's latest window (batch of 1)."""
        return self.predict(self.current_window()[None])[0]

    def to_original_units(self, predictions: np.ndarray) -> np.ndarray:
        """Invert standardization on the primary channel.

        ``predictions`` is ``[..., nodes, 1]`` standardized model output;
        returns ``[..., nodes]`` in original signal units.
        """
        if self.scaler is None:
            raise RuntimeError("session has no scaler; predictions stay "
                               "in standardized units")
        return self.scaler.inverse_transform_channel(predictions[..., 0], 0)


def build_local_session(model: Any, scaler: StandardScaler | None,
                        dataset: Any, spec: Any, *,
                        store_capacity: int | None = None,
                        store_dtype="float32") -> ModelSession:
    """Single-worker session with an attached sliding-window store.

    The dataset decides the time-of-day channel; a store is attached when
    there is a scaler to standardize with.  ``store_dtype`` sets the ring
    precision (``"float16"`` halves the resident serving footprint;
    compute stays float32).
    """
    session = ModelSession(model, scaler, spec=spec)
    if dataset is not None:
        session.add_time_feature = has_time_feature(dataset)
        if scaler is not None:
            session.attach_store(session.new_store(store_capacity,
                                                   dtype=store_dtype))
    return session
