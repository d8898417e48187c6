"""Exception hierarchy used across the library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ShapeError(ReproError, ValueError):
    """An array had an incompatible or invalid shape."""


class OutOfMemoryError(ReproError, MemoryError):
    """A simulated memory space exceeded its capacity.

    Mirrors the OOM crashes the paper reports when standard preprocessing of
    PeMS exceeds a Polaris node's 512 GB of RAM (paper Fig. 2 / Fig. 6).
    """

    def __init__(self, message: str, *, space: str = "", requested: int = 0,
                 capacity: int = 0, in_use: int = 0):
        super().__init__(message)
        self.space = space
        self.requested = requested
        self.capacity = capacity
        self.in_use = in_use


class CommunicatorError(ReproError, RuntimeError):
    """A collective or rank-addressed operation was used incorrectly."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file could not be written or read back.

    Raised instead of leaking raw NumPy/zipfile internals when an ``.npz``
    archive is corrupted, truncated, or not a checkpoint at all; the
    message always names the offending path.
    """


class DatasetFileError(ReproError, RuntimeError):
    """A saved dataset file could not be read back.

    The :class:`CheckpointError` of :mod:`repro.datasets.io`: raised
    instead of raw zipfile/zlib/NumPy internals when the archive is
    missing, truncated, corrupted, lies about its sizes, or is not a
    dataset archive at all; the message always names the offending path.
    """


class SessionFailure(ReproError, RuntimeError):
    """A serving session died mid-dispatch (injected or real).

    The serving resilience layer (:mod:`repro.serving.resilience`)
    catches this at the gateway: the failed batch's requests walk the
    degradation ladder (stale cache, fallback deployment, explicit
    failure) — never silently dropped.  A blue-green swap raises it for a
    green session that fails its check before the flip.
    """
