"""Standardization (z-score) fitted on the training portion.

The paper's Algorithm 1 normalises with the training mean and standard
deviation so "each node contributes equally to the model's predictions".
We standardize per feature channel, which generalises the DCRNN reference's
single-channel scaler to multi-feature datasets.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ShapeError

#: float64 elements per block (256 KiB, L2-resident).  Must stay at or above
#: 128, the leaf size of NumPy's pairwise summation, or a single-feature
#: block would split where NumPy does not.
BLOCK_ELEMS = 1 << 15


def block_rows(features: int) -> int:
    """Rows of a ``[rows, features]`` matrix that make one block."""
    return max(1, BLOCK_ELEMS // features)


def _ordered_sum(fill, rows: int, scratch: np.ndarray) -> np.ndarray:
    """Column sums of a ``[rows, features]`` float64 matrix produced in
    blocks, bit for bit ``np.add.reduce(matrix, axis=0)``.

    ``fill(lo, hi, out)`` writes rows ``[lo, hi)`` into ``out``, a slice of
    ``scratch`` (``[block + 1, features]``).  Floating-point addition is not
    associative, so the blocks follow NumPy's own order:

    - ``features >= 2``: NumPy adds whole rows strictly in order, so each
      block is reduced with the running sum carried in as its row 0.
    - ``features == 1``: NumPy sums pairwise, splitting ``n`` elements at
      ``n // 2`` rounded down to a multiple of 8; the same tree is walked
      here down to block-sized leaves, which NumPy finishes itself.

    Adding the blocks' independent partial sums instead would differ from
    the full-array reduction in the last bits.
    """
    block, features = scratch.shape[0] - 1, scratch.shape[1]
    if features == 1:
        def tree(lo: int, hi: int) -> np.float64:
            n = hi - lo
            if n <= block:
                fill(lo, hi, scratch[:n])
                return np.add.reduce(scratch[:n, 0], initial=0.0)
            half = n // 2
            half -= half % 8
            return tree(lo, lo + half) + tree(lo + half, hi)

        return np.array([tree(0, rows)])
    total = np.zeros(features)
    for lo in range(0, rows, block):
        n = min(block, rows - lo)
        scratch[0] = total
        fill(lo, lo + n, scratch[1: n + 1])
        total = np.add.reduce(scratch[: n + 1], axis=0)
    return total


class StandardScaler:
    """Per-feature z-score scaler for ``[..., features]`` arrays."""

    def __init__(self, mean: np.ndarray | None = None,
                 std: np.ndarray | None = None):
        self.mean_ = None if mean is None else np.asarray(mean, dtype=np.float64)
        self.std_ = None if std is None else np.asarray(std, dtype=np.float64)

    @property
    def fitted(self) -> bool:
        return self.mean_ is not None

    def fit(self, data: np.ndarray) -> "StandardScaler":
        """Fit over every axis except the last (feature) axis.

        Reads ``data`` block by block (:meth:`fit_entries` over views of it)
        and allocates two blocks, not the full-size ``data - mean``
        temporary of ``np.std``.  The statistics are bit for bit NumPy's
        full-array ``np.mean`` / ``np.std`` over the leading axes (at
        ``dtype=float64``) for C-contiguous and row-strided float64 input;
        other dtypes are read as their exact float64 cast.  Rows are always
        summed in *logical* order, so transposed or Fortran-ordered input
        (which NumPy reduces in memory order; no caller in ``src/`` passes
        one) agrees with NumPy to a few ulps only.
        """
        data = np.asarray(data)
        if data.ndim < 2:
            raise ShapeError("scaler expects at least [entries, features]")
        return self.fit_entries(lambda first, last: data[first:last],
                                data.shape)

    def fit_entries(self, read, shape: tuple[int, ...]) -> "StandardScaler":
        """Fit on a logical ``[entries, ..., features]`` array of ``shape``
        that is served a few leading-axis entries at a time.

        ``read(first, last)`` returns entries ``[first, last)`` — never
        more than ``block_rows(features) // rows_per_entry + 2`` of them —
        as an array the scaler only reads and drops before the next call,
        so a producer may refill one buffer.  Two passes over the
        ``[rows, features]`` folding: column sums for the mean, then sums
        of squared deviations for the standard deviation, each accumulated
        in the order NumPy's own full-array reduction uses (see
        :func:`_ordered_sum`), so blocking never changes a bit of either.
        """
        features = shape[-1]
        inner = int(np.prod(shape[1:-1], dtype=np.int64))   # rows per entry
        rows = shape[0] * inner

        def read_rows(lo: int, hi: int) -> np.ndarray:
            first = lo // inner
            lead = read(first, -(-hi // inner)).reshape(-1, features)
            return lead[lo - first * inner: hi - first * inner]

        scratch = np.empty((block_rows(features) + 1, features))

        def values(lo: int, hi: int, out: np.ndarray) -> None:
            out[...] = read_rows(lo, hi)

        def squared_deviations(lo: int, hi: int, out: np.ndarray) -> None:
            np.subtract(read_rows(lo, hi), self.mean_, out=out)
            np.multiply(out, out, out=out)

        self.mean_ = _ordered_sum(values, rows, scratch) / rows
        std = np.sqrt(_ordered_sum(squared_deviations, rows, scratch) / rows)
        # Constant channels (e.g. an all-zero feature) must not divide by 0.
        self.std_ = np.where(std > 0, std, 1.0)
        return self

    def _check(self) -> None:
        if not self.fitted:
            raise RuntimeError("scaler used before fit()")

    def transform(self, data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Standardize; pass ``out=data`` for in-place (index-batching
        does, one block at a time)."""
        self._check()
        data = np.asarray(data)
        mean = self.mean_.astype(data.dtype)
        std = self.std_.astype(data.dtype)
        if out is None:
            return (data - mean) / std
        np.subtract(data, mean, out=out)
        np.divide(out, std, out=out)
        return out

    def inverse_transform(self, data: np.ndarray) -> np.ndarray:
        self._check()
        data = np.asarray(data)
        return data * self.std_.astype(data.dtype) + self.mean_.astype(data.dtype)

    def inverse_transform_channel(self, data: np.ndarray, channel: int) -> np.ndarray:
        """Undo scaling for a single feature channel (predictions usually
        cover only the primary signal channel)."""
        self._check()
        return data * float(self.std_[channel]) + float(self.mean_[channel])
