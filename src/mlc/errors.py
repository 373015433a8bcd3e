"""Typed errors raised at module boundaries.

Every invalid construction or contract violation maps to one of the ten
MlcError subclasses, one for each kind of failure, so callers can catch the
base class or one kind; the message names the precise condition.
`allocating` turns an array too large to allocate into ShapeMismatch.
"""

from collections.abc import Iterator
from contextlib import contextmanager


class MlcError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatch(MlcError):
    """Two shapes that must agree do not, a pool grid or top-k exceeds the image
    or class count, or an array is too large to allocate."""


class NonFinite(MlcError):
    """A score or model parameter is NaN or infinite."""


class NonBinaryLabel(MlcError):
    """A label entry is neither 0 nor 1."""


class PixelOutOfRange(MlcError):
    """A value to be quantized to a pixel byte is not in [0, 1], or is NaN."""


class EmptyInput(MlcError):
    """An operation that needs at least one member received none: no score
    matrix to fuse, no image in a manifest, or no positive label for AP or mAP."""


class ParseError(MlcError):
    """A PPM, CSV, manifest or checkpoint breaks its format, or a manifest
    label index is outside [0, C); the message says what broke."""


class DataLoadError(MlcError):
    """A dataset image is missing or unreadable, or a manifest entry leaves
    the dataset root."""


class DivergedLoss(MlcError):
    """A batch's mean loss is non-finite or over trainer.DIVERGENCE_FACTOR times the first's."""


class NoVisibleArrangement(MlcError):
    """Synthetic generation found no draw that leaves every labeled shape visible."""


class IoError(MlcError):
    """Writing generated artifacts to disk failed."""


@contextmanager
def allocating(what: str) -> Iterator[None]:
    """Raise ShapeMismatch(f"{what} too large to allocate") where the block's
    arrays exceed numpy's size limit (ValueError) or the host's memory."""
    try:
        yield
    except (MemoryError, ValueError):
        raise ShapeMismatch(f"{what} too large to allocate") from None
