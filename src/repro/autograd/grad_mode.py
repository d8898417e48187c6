"""Global gradient-recording switch (the analogue of ``torch.no_grad``)."""

from __future__ import annotations

import contextlib
from typing import Iterator

_GRAD_ENABLED: bool = True


def is_grad_enabled() -> bool:
    """Return whether new operations record backward graph edges."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph recording inside its block.

    Used by evaluation loops and optimizer updates so that parameter reads
    do not extend the autograd graph.
    """
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev
