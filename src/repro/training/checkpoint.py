"""Training checkpoints: save/restore model + optimizer + history.

Long PeMS runs on shared clusters need restartability; this module
serialises everything to a single ``.npz`` (portable, no pickle of code).

Checkpoints can be **self-describing**: pass ``spec=`` (the
:class:`~repro.api.spec.RunSpec` that produced the model) and ``scaler=``
(the fitted :class:`~repro.preprocessing.scaler.StandardScaler`) to
:func:`save_checkpoint` and the archive carries everything the serving
layer needs to rebuild the model and standardize live observations —
``repro.serving.ModelSession.from_checkpoint`` consumes exactly this.

Writes are atomic: the archive is staged through a ``tempfile`` in the
*target directory* (same filesystem, so the final ``os.replace`` is a
rename, never a copy) and readers can never observe a half-written file —
regardless of whether ``path`` already ends in ``.npz``.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.nn.module import Module
from repro.optim.optimizers import Optimizer
from repro.preprocessing.scaler import StandardScaler
from repro.utils.errors import CheckpointError
from repro.utils.files import ARCHIVE_ERRORS, savez_atomic


def save_checkpoint(path: str, model: Module, optimizer: Optimizer | None = None,
                    *, epoch: int = 0, extra: dict[str, Any] | None = None,
                    spec: Any = None,
                    scaler: StandardScaler | None = None) -> None:
    """Write model parameters (and optimizer slots) to ``path`` atomically.

    ``extra`` must be JSON-serialisable (stored in the archive's metadata).
    ``spec`` may be a ``RunSpec`` or a plain spec dict; ``scaler`` stores
    its fitted statistics as float64 arrays.  Both make the checkpoint
    self-describing for the serving layer.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, p in model.named_parameters():
        arrays[f"param/{name}"] = p.data
    spec_dict = None
    if spec is not None:
        spec_dict = spec if isinstance(spec, dict) else spec.to_dict()
    meta: dict[str, Any] = {"epoch": int(epoch), "extra": extra or {},
                            "optimizer": None, "spec": spec_dict}
    if scaler is not None:
        if not scaler.fitted:
            raise ValueError("cannot embed an unfitted scaler in a checkpoint")
        arrays["scaler/mean"] = scaler.mean_
        arrays["scaler/std"] = scaler.std_
    if optimizer is not None:
        meta["optimizer"] = {"type": type(optimizer).__name__,
                             "lr": optimizer.lr,
                             "step_count": optimizer.step_count}
        for slot, flat in optimizer.state.items():
            for i, view in enumerate(optimizer.views(flat)):
                arrays[f"{slot}/{i}"] = view
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    savez_atomic(path, arrays)


def _read_archive(path: str) -> dict[str, np.ndarray]:
    """Materialise every member of a checkpoint archive eagerly.

    ``np.load`` is lazy: a truncated or bit-flipped member only explodes
    (zipfile/zlib/CRC internals) when that member is finally read, which
    may be deep inside the serving layer.  Forcing every array here turns
    any corruption into a :class:`~repro.utils.errors.CheckpointError`
    that names the offending path at the door.
    """
    try:
        with np.load(str(path)) as archive:
            return {key: archive[key] for key in archive.files}
    except FileNotFoundError:
        raise CheckpointError(
            f"checkpoint {path!r} does not exist") from None
    except ARCHIVE_ERRORS as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is corrupted or truncated "
            f"({type(exc).__name__}: {exc})") from exc


def load_checkpoint(path: str, model: Module,
                    optimizer: Optimizer | None = None, *,
                    arrays: dict[str, np.ndarray] | None = None
                    ) -> dict[str, Any]:
    """Restore ``model`` (and ``optimizer``) in place; returns metadata.

    ``arrays`` is the archive's members when the caller has already read
    them (``_read_archive(path)``), so the file is read once.

    Raises :class:`~repro.utils.errors.CheckpointError` (naming ``path``)
    when the archive is missing, truncated, or not a checkpoint at all,
    and (naming the key) when an optimizer slot's shape is not its
    parameter's; model/archive parameter *shape* mismatches still surface
    as their own errors.  Values are copied into the existing arrays, so
    parameters stay views of ``optimizer.data``.  A slot the archive
    lacks restores as zeros, the state of a parameter never stepped.
    """
    if arrays is None:
        arrays = _read_archive(path)
    meta = _meta_from(arrays, path)
    state = {key[len("param/"):]: value
             for key, value in arrays.items() if key.startswith("param/")}
    model.load_state_dict(state)
    if optimizer is not None:
        opt_meta = meta.get("optimizer")
        if opt_meta is None:
            raise ValueError(f"{path} holds no optimizer state")
        if opt_meta["type"] != type(optimizer).__name__:
            raise ValueError(
                f"checkpoint optimizer {opt_meta['type']} != "
                f"{type(optimizer).__name__}")
        optimizer.lr = float(opt_meta["lr"])
        optimizer.step_count = int(opt_meta["step_count"])
        for slot, flat in optimizer.state.items():
            for i, view in enumerate(optimizer.views(flat)):
                key = f"{slot}/{i}"
                arr = arrays.get(key, np.zeros_like(view))
                if arr.shape != view.shape:
                    raise CheckpointError(
                        f"checkpoint {path!r} slot {key} has shape "
                        f"{arr.shape}, but its parameter has {view.shape}")
                view[...] = arr
    return meta


def _meta_from(arrays: dict[str, np.ndarray], path: str) -> dict[str, Any]:
    blob = arrays.get("__meta__")
    if blob is None:
        raise CheckpointError(
            f"checkpoint {path!r} carries no __meta__ record; not a "
            f"repro checkpoint (or one whose metadata was destroyed)")
    try:
        meta = json.loads(bytes(blob).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} metadata is corrupted "
            f"({type(exc).__name__}: {exc})") from exc
    # Checkpoints written before specs were embedded lack the key entirely.
    meta.setdefault("spec", None)
    return meta


def read_checkpoint_meta(path: str) -> dict[str, Any]:
    """Metadata (epoch, extra, optimizer summary, embedded spec dict)
    without touching any model."""
    return _meta_from(_read_archive(path), path)


def read_checkpoint_scaler(path: str) -> StandardScaler | None:
    """The scaler embedded by ``save_checkpoint(..., scaler=...)``, if any."""
    arrays = _read_archive(path)
    if "scaler/mean" not in arrays:
        return None
    return StandardScaler(mean=arrays["scaler/mean"],
                          std=arrays["scaler/std"])
