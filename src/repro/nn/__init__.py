"""Neural-network building blocks on top of :mod:`repro.autograd`."""

from repro.nn.init import glorot_uniform, zeros_
from repro.nn.module import Module, Parameter
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.attention import MultiHeadAttention

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Dropout",
    "MultiHeadAttention",
    "glorot_uniform",
    "zeros_",
]
