"""Graph partitioning (the alternative the paper argues *against*).

PGT-I deliberately avoids partitioning (it "can negatively impact accuracy"
— §4); DynaGraph and Mallick et al. rely on it.  We provide a simple
multilevel-style partitioner (recursive spectral bisection with a greedy
balance fix-up) so the partitioning-vs-index-batching ablation promised in
the paper's future-work section can be run.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ShapeError
from repro.utils.seeding import new_rng


def _fiedler_split(w: sp.csr_matrix, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``nodes`` in half along the Fiedler vector of the subgraph."""
    sub = w[nodes][:, nodes]
    sym = ((sub + sub.T) * 0.5).tocsr()
    deg = np.asarray(sym.sum(axis=1)).ravel()
    lap = sp.diags(deg) - sym
    n = len(nodes)
    if n <= 2:
        half = n // 2
        return nodes[:half], nodes[half:]
    # A fixed start vector: ARPACK's own advances with every call, so the
    # split (and its edge cut) changed from call to call.  Not ``ones``:
    # that is the Laplacian's null vector.
    v0 = new_rng("graph", "fiedler", n).uniform(-1.0, 1.0, n)
    try:
        vals, vecs = sp.linalg.eigsh(lap.asfptype(), k=2, sigma=-1e-3,
                                     which="LM", v0=v0)
        fiedler = vecs[:, np.argsort(vals)[1]]
    except sp.linalg.ArpackError:  # ArpackNoConvergence is one
        # Degenerate subgraph: fall back to index order (still balanced).
        fiedler = np.arange(n, dtype=float)
    order = np.argsort(fiedler, kind="stable")
    half = n // 2
    return nodes[order[:half]], nodes[order[half:]]


def partition_graph(weights: sp.spmatrix, num_parts: int) -> np.ndarray:
    """Assign each node to one of ``num_parts`` balanced parts.

    Returns an ``[num_nodes]`` integer array of part ids.  ``num_parts``
    must be a power of two (recursive bisection), which covers the 2/4/8/...
    worker counts used in distributed training.  Edge weights must be
    finite: a ``nan`` or ``inf`` has no Fiedler vector to split along.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if num_parts & (num_parts - 1):
        raise ValueError(f"num_parts must be a power of two, got {num_parts}")
    w = weights.tocsr()
    if w.shape[0] != w.shape[1]:
        raise ShapeError(f"adjacency must be square, got {w.shape}")
    if not np.isfinite(w.data).all():
        raise ValueError("edge weights must be finite")
    n = w.shape[0]
    if num_parts > n:
        raise ValueError(f"cannot split {n} nodes into {num_parts} parts")

    assignment = np.zeros(n, dtype=np.int64)
    groups: list[tuple[np.ndarray, int, int]] = [(np.arange(n), 0, num_parts)]
    while groups:
        nodes, base, parts = groups.pop()
        if parts == 1:
            assignment[nodes] = base
            continue
        left, right = _fiedler_split(w, nodes)
        groups.append((left, base, parts // 2))
        groups.append((right, base + parts // 2, parts // 2))
    return assignment


def edge_cut(weights: sp.spmatrix, assignment: np.ndarray) -> int:
    """Number of directed edges whose endpoints live in different parts."""
    coo = weights.tocoo()
    return int(np.count_nonzero(assignment[coo.row] != assignment[coo.col]))
