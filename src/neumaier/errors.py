"""Exception types shared across the package."""


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 data.

    ``offset`` is the byte offset of the offending byte within the record
    (0 = header byte), or None when the problem is not tied to one byte.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class SpectralResolutionError(RuntimeError):
    """Numeric eigenvalues cannot be reconciled with the exact spectrum:
    no gap threshold in [1e-13, 1.0] splits them into the exact number
    of distinct eigenvalues, or the cluster sizes miss the exact
    multiplicities."""


class DegenerateSpectrumError(ValueError):
    """Spectrum has a single distinct eigenvalue (edgeless graph), so the
    named second-largest/smallest accessors are undefined."""


class ConsistencyError(RuntimeError):
    """An internal cross-check between two independent computations failed.

    This always indicates an implementation bug, never bad user input.
    """
