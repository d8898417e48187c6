"""Graph supports: the normalized operators ST-GNN layers multiply by.

DCRNN's diffusion convolution uses the forward and backward random-walk
transition matrices (Li et al. 2018); TGCN/A3T-GCN use the symmetric
normalized adjacency with self-loops.  All functions return CSR matrices
and treat them as constants (no gradient flows through supports).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ShapeError


def _check_square(w: sp.spmatrix) -> sp.csr_matrix:
    if w.shape[0] != w.shape[1]:
        raise ShapeError(f"adjacency must be square, got {w.shape}")
    return w.tocsr()


def random_walk_matrix(weights: sp.spmatrix) -> sp.csr_matrix:
    """Row-normalized transition matrix ``D^-1 W`` (out-degree normalised)."""
    w = _check_square(weights)
    deg = np.asarray(w.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return (sp.diags(inv) @ w).tocsr()


def dual_random_walk_supports(weights: sp.spmatrix) -> list[sp.csr_matrix]:
    """DCRNN's two diffusion directions: ``D_O^-1 W`` and ``D_I^-1 W^T``."""
    w = _check_square(weights)
    return [random_walk_matrix(w), random_walk_matrix(w.T.tocsr())]


def symmetric_normalized_adjacency(weights: sp.spmatrix,
                                   add_self_loops: bool = True) -> sp.csr_matrix:
    """GCN normalisation ``D^-1/2 (W + I) D^-1/2``."""
    w = _check_square(weights)
    if add_self_loops:
        w = (w + sp.eye(w.shape[0], format="csr")).tocsr()
    deg = np.asarray(w.sum(axis=1)).ravel()
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
    d = sp.diags(inv_sqrt)
    return (d @ w @ d).tocsr()
