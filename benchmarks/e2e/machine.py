"""The host's speed: one fixed reference pass, and ops timed against it.

The sandbox host moves between speed states (the same code reads 1x,
~1.2x or ~1.45x for seconds to minutes at a time, on each core
independently), and ten runs of unchanged code taken over five minutes
spread by 30 to 47% on every metric that is bound by the interpreter and
the core.  No statistic over a run's own ops removes a state the run sits
inside, so those ops are timed *against a reference*: a fixed pass of
interpreter, small-BLAS, sparse and element-wise work (:func:`ref_pass_ms`,
~1.3 ms, defined here and touching nothing of the program) runs before
the first op and after every few ops, and an op's cost is read as the
ratio of its time to the passes around it (:class:`Paired`).  The ratio is
converted back to milliseconds with one constant, :data:`REF_NOMINAL_MS`,
so numbers read as they would on the sizing box in its fast state.

Only interpreter- and core-bound ops are paired (``train_index``,
``ddp_index_w2``, the capacity phase of ``serve_gateway``).  A memory
gather (``data_index``) and an open-loop latency that is half timer do not
follow the core's speed and are reported as measured.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np
import scipy.sparse as sp

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: What one reference pass takes on the sizing box in its fast state.  It
#: only sets the scale of the paired metrics (a host where the pass takes
#: this long reports them as measured); it is never tuned.
REF_NOMINAL_MS = 1.30

_rng = np.random.default_rng(7)
_REF_A = (_rng.standard_normal((64, 64)) / 4.0).astype(np.float32)
_REF_S = sp.random(64, 64, 0.1, format="csr", dtype=np.float32,
                   random_state=1)
_REF_X = _rng.standard_normal((64, 256)).astype(np.float32)
_REF_E = _rng.standard_normal((32, 64, 32)).astype(np.float32)
del _rng


def ref_pass_ms() -> float:
    """Milliseconds one reference pass takes right now: the mix of a
    training step (bytecode, small matmuls, sparse products, element-wise
    temporaries), all of it resident in L2."""
    t0 = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    b = _REF_A
    for _ in range(40):
        b = np.tanh(_REF_A @ b)   # spectral radius > 1: never denormal
    for _ in range(20):
        _REF_S @ _REF_X
    for _ in range(10):
        (_REF_E * 0.5 + 1.0).sum()
    return (time.perf_counter() - t0) * 1e3


class Paired:
    """Op times in chunks of ``every`` ops, a reference pass before the
    first chunk and after each one."""

    def __init__(self, every: int):
        self.every = every
        self.op_ms: list[float] = []
        self.ref_ms: list[float] = []

    def before_op(self) -> None:
        """Call before timing an op: takes the pass that opens a chunk."""
        if len(self.op_ms) % self.every == 0:
            self.ref_ms.append(ref_pass_ms())

    def close(self) -> None:
        """Call after the last op: takes the pass that ends the last chunk."""
        self.ref_ms.append(ref_pass_ms())

    def summary(self) -> dict:
        """``at_ref_ms``: the median over chunks of (mean op time / mean of
        the two passes around the chunk), in milliseconds at the nominal
        pass time.  ``host_speed``: mean pass time / nominal (1.3 = the
        host ran 1.3x slower than the sizing box in its fast state)."""
        k, ops, refs = self.every, self.op_ms, self.ref_ms
        ratios = [statistics.fmean(ops[i:i + k]) * 2.0
                  / (refs[i // k] + refs[i // k + 1])
                  for i in range(0, len(ops), k)]
        if not ratios:      # no op completed: the phase has failed anyway
            ratios = [float("nan")]
        return {"at_ref_ms": statistics.median(ratios) * REF_NOMINAL_MS,
                "host_speed": statistics.fmean(refs) / REF_NOMINAL_MS,
                "ref_ms": refs}


def machine_ref_ms(repeats: int = 3) -> float:
    """One reading of the reference pass for the environment block: the
    minimum over ``repeats`` passes (an interruption only lengthens one)."""
    return min(ref_pass_ms() for _ in range(repeats))


def summarize_ref(readings: list[float]) -> dict:
    return {"min": min(readings), "median": statistics.median(readings),
            "max": max(readings), "samples": len(readings),
            "nominal": REF_NOMINAL_MS}


def environment(seed: int) -> dict:
    import scipy
    from repro import kernels
    from repro.hardware.cores import usable_cores

    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "kernel_backend": kernels.active_backend().name,
        "kernel_backends_available": list(kernels.available_backends()),
        "seed": seed,
    }
