"""DCRNN: Diffusion Convolutional Recurrent Neural Network (Li et al. 2018).

The full model the paper benchmarks as its PyTorch baseline: a GRU whose
matmuls are replaced by diffusion convolutions (:class:`DCGRUCell`), wired
as a sequence-to-sequence encoder-decoder.  The decoder rolls forward with
scheduled sampling during training (probability of using the ground truth
decays with global step) and feeds back its own predictions at inference.

:class:`DCGRUCell` has two entry points onto the same arithmetic:

- ``forward(x, h)`` is batch-major (``[B, N, dim]``) and composes public
  autograd ops through the shared ``gru_cell_step``.  It is what
  :class:`DCRNN` calls and the reference that ``sequence`` is tested
  against.
- ``sequence(xs, hb)`` runs all ``T`` steps **node-major**: the state is
  ``[N, B, H]`` because that is the layout
  :class:`~repro.models.dconv.DiffusionConv` computes in, so the
  recurrence needs no concat, no transposed copies and no slice
  scatters.  It binds the stacked operators, flat ``csr_matvecs``
  operands, scratch and weight arrays once per forward, and returns the
  backward of the whole sequence for one autograd node: PGT-DCRNN's
  (states and projection) and A3T-GCN's (states only).  T-GCN is this
  cell over one support, one hop and no identity block.

What that backward keeps, per step: the two hop blocks (GEMM inputs), the
gate activations ``s = [r | u]`` and the candidate ``c`` (each the
in-place result on a GEMM output allocated for that step), and the
previous state.  ``1 - u`` and ``1 - c*c`` are recomputed.  Without
gradients nothing is kept.
Everything else is per-``(batch, dtype)`` scratch on the cell and its two
convolutions, used only while one call runs, never handed to a caller, and
never module-global -- forked ranks and ``deepcopy``'d deployments each
have their own.

**Accumulation-order contract.**  Float addition does not associate, and
the fixed-seed curves (``tests/test_fabric.py::PINNED_2EP`` and every
cross-transport parity) are compared bit for bit, so ``sequence`` keeps
the operand order of every operation and the order in which gradients
meet.  The state gradient lives in two node-major buffers; walking
``t = T-1 ... 0``, the buffer of ``h_{t-1}`` is first *set* to the
readout's term (PGT-DCRNN's projection, ``g_t W_p^T``; A3T-GCN's
gradient into its stacked states), then takes
``G*u`` (blend), ``g_rh*r`` (reset product) and the gates convolution's
input-gradient slice as three separate adds; summing the three first
changes the bits.  Weight and bias gradients accumulate candidate before
gates within a step, steps in reverse time, all after the projection's.
``t = 0`` skips every ``h_{-1}`` term and the gates input gradient.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd import functional as F
from repro.autograd.grad_mode import is_grad_enabled
from repro.autograd.tensor import Tensor
from repro.models.base import STModel
from repro.models.dconv import DiffusionConv, cached_scratch
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.rnn import gru_cell_step
from repro.utils.seeding import new_rng


class _StepScratch:
    """Per-(batch, dtype) temporaries of :meth:`DCGRUCell.sequence`."""

    __slots__ = ("t", "den", "tmp")

    def __init__(self, n: int, b: int, hid: int, dtype):
        self.t = np.empty((n, b, 2 * hid), dtype)
        self.den = np.empty((n, b, 2 * hid), dtype)
        self.tmp = np.empty((n, b, hid), dtype)


def _sigmoid_(x: np.ndarray, t: np.ndarray, den: np.ndarray) -> None:
    """In-place ``Tensor.sigmoid`` numerics: ``t / (t + 1)`` with
    ``t = exp(-|x|)`` and the numerator set to 1 where ``x >= 0``.

    ``t <= 1``, so ``max(t, [x >= 0])`` is that numerator; it costs a
    quarter of a masked copy.
    """
    np.abs(x, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.add(t, 1.0, out=den)
    np.greater_equal(x, 0, out=x)
    np.maximum(t, x, out=t)
    np.divide(t, den, out=x)


class DCGRUCell(Module):
    """GRU cell with diffusion-convolution gates: ``forward`` over
    ``[B, N, dim]`` states, ``sequence`` over ``[N, B, dim]`` ones."""

    def __init__(self, supports: list[sp.spmatrix], in_dim: int,
                 hidden_dim: int, k_hops: int = 2, *, identity: bool = True,
                 seed_name: str = "dcgru"):
        super().__init__()
        self.hidden_dim = hidden_dim
        self.num_nodes = supports[0].shape[0]
        self.gates = DiffusionConv(supports, in_dim + hidden_dim,
                                   2 * hidden_dim, k_hops, identity=identity,
                                   seed_name=f"{seed_name}.gates")
        # Bias gates toward "keep state" at init (standard GRU trick).
        self.gates.bias.data[:] = 1.0
        self.candidate = DiffusionConv(supports, in_dim + hidden_dim,
                                       hidden_dim, k_hops, identity=identity,
                                       seed_name=f"{seed_name}.cand")
        self._scratch: dict[tuple, _StepScratch] = {}

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return gru_cell_step(self.gates, self.candidate, x, h,
                             self.hidden_dim)

    def sequence(self, xs: np.ndarray, hb: np.ndarray):
        """Run the node-major recurrence over ``xs`` from a zero state.

        ``xs`` is a contiguous ``[T, N, B, in]`` array (no gradient flows
        to it); each ``h_t`` is copied batch-major into ``hb[t]``
        (``[T, B, N, H]``, any strides).  Returns ``None`` when no
        gradient is recorded, else ``walk(readout)``: the backward of all
        ``T`` steps, where ``readout(t, out)`` sets the node-major
        ``[N, B, H]`` buffer ``out`` to the readout's gradient into
        ``h_t``.
        """
        steps, n, b, fin = xs.shape
        hid = self.hidden_dim
        gates, cand = self.gates, self.candidate
        dtype = xs.dtype
        sg, sc = gates._get_scratch(b, dtype), cand._get_scratch(b, dtype)
        scr = cached_scratch(
            self._scratch, b, dtype,
            lambda: _StepScratch(n, b, hid, dtype))
        keep = is_grad_enabled() and any(
            p.requires_grad for p in (cand.weight, cand.bias, gates.weight,
                                      gates.bias))
        x0, tmp = sg.x0, scr.tmp
        x_in, x_h = x0[:, :, :fin], x0[:, :, fin:]
        run_g, run_c = gates._bind(sg, x0, keep), cand._bind(sc, x0, keep)
        kept = []
        hd = np.zeros((n, b, hid), dtype)
        for t in range(steps):
            # [x_t | h] -> gates; sigmoid in place on the GEMM output.
            x_in[...] = xs[t]
            x_h[...] = hd
            cat_g, s2 = run_g()
            s = s2.reshape(n, b, 2 * hid)
            _sigmoid_(s, scr.t, scr.den)
            r, u = s[:, :, :hid], s[:, :, hid:]

            # [x_t | r*h] -> candidate (same input buffer); tanh in place.
            np.multiply(r, hd, out=x_h)
            cat_c, c2 = run_c()
            c = c2.reshape(n, b, hid)
            np.tanh(c, out=c)

            h_new = np.empty((n, b, hid), dtype)
            np.multiply(u, hd, out=h_new)
            np.subtract(1.0, u, out=tmp)
            tmp *= c
            h_new += tmp
            hb[t] = h_new.transpose(1, 0, 2)
            if keep:
                kept.append((cat_g, s, r, u, cat_c, c, hd))
            hd = h_new
        if not keep:
            return None

        def walk(readout) -> None:
            bw_g, bw_c = gates._bind_backward(sg), cand._bind_backward(sc)
            dpre, dc = sg.gout, sc.gout           # d pre-activations
            dpre2, dc2 = dpre.reshape(n * b, -1), dc.reshape(n * b, -1)
            dpre_r, dpre_u = dpre[:, :, :hid], dpre[:, :, hid:]
            G, G_prev = np.empty((2, n, b, hid), dtype)  # d h_t, d h_{t-1}
            readout(steps - 1, G)
            for t in range(steps - 1, -1, -1):
                cat_g, s, r, u, cat_c, c, hd = kept[t]
                if t:                             # readout's term first
                    readout(t - 1, G_prev)
                np.multiply(G, hd, out=dpre_u)    # d u = G*h - G*c
                np.multiply(G, c, out=tmp)
                dpre_u -= tmp
                if t:
                    np.multiply(G, u, out=tmp)
                    G_prev += tmp                 # blend
                np.subtract(1.0, u, out=dc)
                np.multiply(G, dc, out=dc)
                np.multiply(c, c, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                dc *= tmp
                g_rh = bw_c(cat_c, dc2, True)[:, :, fin:]
                np.multiply(g_rh, hd, out=dpre_r)  # d r
                if t:
                    np.multiply(g_rh, r, out=tmp)
                    G_prev += tmp                 # reset product
                dpre *= s                         # sigmoid': (g*s)*(1-s)
                np.subtract(1.0, s, out=scr.t)
                dpre *= scr.t
                gx = bw_g(cat_g, dpre2, t > 0)
                if t:
                    G_prev += gx[:, :, fin:]      # gates input gradient
                G, G_prev = G_prev, G

        return walk

    def init_hidden(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.num_nodes, self.hidden_dim),
                               dtype=np.float32))

    def flops(self, batch: int) -> float:
        return self.gates.flops(batch) + self.candidate.flops(batch)


class DCRNN(STModel):
    """Encoder-decoder DCRNN for sequence-to-sequence forecasting.

    Parameters mirror the reference implementation: ``num_layers`` stacked
    DCGRU cells in both encoder and decoder, diffusion order ``k_hops``,
    scheduled sampling controlled by ``cl_decay_steps`` (curriculum
    learning decay; 0 disables teacher forcing entirely).
    """

    def __init__(self, supports: list[sp.spmatrix], horizon: int,
                 in_features: int, hidden_dim: int = 64, num_layers: int = 2,
                 k_hops: int = 2, cl_decay_steps: int = 1000,
                 *, seed: int | str = 0):
        super().__init__()
        self.horizon = horizon
        self.num_nodes = supports[0].shape[0]
        self.in_features = in_features
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.cl_decay_steps = cl_decay_steps
        self.global_step = 0
        self._rng = new_rng("model", "dcrnn", seed)

        self.encoder = [
            DCGRUCell(supports, in_features if i == 0 else hidden_dim,
                      hidden_dim, k_hops, seed_name=f"dcrnn{seed}.enc{i}")
            for i in range(num_layers)
        ]
        # Decoder input is the previous prediction (1 channel).
        self.decoder = [
            DCGRUCell(supports, 1 if i == 0 else hidden_dim,
                      hidden_dim, k_hops, seed_name=f"dcrnn{seed}.dec{i}")
            for i in range(num_layers)
        ]
        self.proj = Linear(hidden_dim, 1, seed_name=f"dcrnn{seed}.proj")

    # -- scheduled sampling --------------------------------------------
    def _teacher_forcing_prob(self) -> float:
        if self.cl_decay_steps <= 0:
            return 0.0
        k = float(self.cl_decay_steps)
        return k / (k + np.exp(self.global_step / k))

    def forward(self, x: Tensor, targets: np.ndarray | None = None) -> Tensor:
        """``x``: [B, h, N, F]; optional ``targets`` [B, h, N, >=1] enable
        scheduled sampling during training."""
        self.check_input(x)
        batch = x.shape[0]
        # Encode.
        hidden = [cell.init_hidden(batch) for cell in self.encoder]
        for t in range(self.horizon):
            inp = x[:, t]
            for i, cell in enumerate(self.encoder):
                hidden[i] = cell(inp, hidden[i])
                inp = hidden[i]
        # Decode with GO symbol.
        dec_hidden = hidden
        go = Tensor(np.zeros((batch, self.num_nodes, 1), dtype=np.float32))
        outputs = []
        prev = go
        use_tf = (self.training and targets is not None)
        tf_prob = self._teacher_forcing_prob() if use_tf else 0.0
        for t in range(self.horizon):
            inp = prev
            for i, cell in enumerate(self.decoder):
                dec_hidden[i] = cell(inp, dec_hidden[i])
                inp = dec_hidden[i]
            step_out = self.proj(inp)  # [B, N, 1]
            outputs.append(step_out)
            if use_tf and self._rng.random() < tf_prob:
                prev = Tensor(np.ascontiguousarray(targets[:, t, :, :1],
                                                   dtype=np.float32))
            else:
                prev = step_out
        if self.training:
            self.global_step += 1
        return F.stack(outputs, axis=1)  # [B, h, N, 1]

    def flops_per_snapshot(self) -> float:
        enc = sum(c.flops(1) for c in self.encoder)
        dec = sum(c.flops(1) for c in self.decoder)
        proj = 2.0 * self.num_nodes * self.hidden_dim
        # x3 for backward pass (standard 2x backward + 1x forward rule).
        return 3.0 * self.horizon * (enc + dec + proj)
