"""Typed errors raised at module boundaries.

Every invalid construction or contract violation maps to one of these,
one for each kind of failure, so callers can catch a single base class or
one kind; the message names the precise condition.
"""


class MlcError(Exception):
    """Base class for all toolkit errors."""


# -- shared container errors -------------------------------------------------

class ShapeMismatch(MlcError):
    """Two containers that must agree in shape do not."""


class NonFinite(MlcError):
    """A score or model parameter is NaN or infinite."""


class NonBinaryLabel(MlcError):
    """A label entry is neither 0 nor 1."""


class PixelOutOfRange(MlcError):
    """A value to be quantized to a pixel byte is not in [0, 1], or is NaN."""


# -- file format errors ------------------------------------------------------

class ParseError(MlcError):
    """A PPM, CSV, manifest or checkpoint breaks its format; the message says what broke."""


class IndexOutOfRange(MlcError):
    """A manifest label index is outside [0, C)."""


# -- model / metrics errors --------------------------------------------------

class GridTooLarge(MlcError):
    """Pooling grid exceeds the image dimensions."""


class KTooLarge(MlcError):
    """Requested top-k exceeds the number of classes."""


class NoPositives(MlcError):
    """Average precision is undefined without any positive example."""


class AllClassesEmpty(MlcError):
    """No class has a positive example, so mAP is undefined."""


class EmptyInput(MlcError):
    """An operation that needs at least one member received none."""


# -- pipeline errors ---------------------------------------------------------

class DataLoadError(MlcError):
    """A dataset image is missing or unreadable, or a manifest entry leaves
    the dataset root."""


class DivergedLoss(MlcError):
    """A batch's mean loss is non-finite or over trainer.DIVERGENCE_FACTOR times the first's."""


class NoVisibleArrangement(MlcError):
    """Synthetic generation found no draw that leaves every labeled shape visible."""


class IoError(MlcError):
    """Writing generated artifacts to disk failed."""
