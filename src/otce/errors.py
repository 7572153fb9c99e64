"""Exception hierarchy.

Two branches matter for callers: :class:`InputError` covers everything a
user can fix (bad files, bad shapes, bad flags) and maps to CLI exit
code 2; :class:`NumericalError` covers solver failures (overflow,
non-finite gradients, divergence) and maps to exit code 3.
Non-convergence of the Sinkhorn solver is *not* an error; it is reported
through the ``converged`` flag on results.
"""


class OtceError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OtceError):
    """Invalid input data, file, or configuration (CLI exit code 2)."""


class NumericalError(OtceError):
    """Numerical failure inside a solver (CLI exit code 3)."""


# -- data / file ingestion -------------------------------------------------

class MalformedHeader(InputError):
    """FTRS header is missing, truncated, or carries bad magic/version."""


class DimensionMismatch(InputError):
    """Array shapes are inconsistent with each other or with a header."""


class NonFiniteValue(InputError):
    """Features, a coupling or paired scores contain NaN or infinity."""


class LabelOutOfRange(InputError):
    """A label falls outside [0, class_count)."""


class RaggedRow(InputError):
    """CSV row has a different field count than the first row."""


class NonNumericField(InputError):
    """CSV field could not be parsed as a number of the expected kind."""


class NegativeLabel(InputError):
    """CSV label column contains a negative integer."""


class IoFailure(InputError):
    """Underlying OS write/read failure."""


# -- solvers ---------------------------------------------------------------

class TooLarge(InputError):
    """Instance exceeds the brute-force oracle's size limit."""


class NumericalOverflow(NumericalError):
    """Plain-scaling Sinkhorn under/overflowed; retry with log_domain."""


# -- rank evaluation -------------------------------------------------------

class LengthMismatch(InputError):
    """Paired sequences have different lengths."""


class DegenerateInput(InputError):
    """Too few points or zero variance; correlation undefined."""


class EmptyInput(InputError):
    """An operation requiring at least one element got none."""


# -- guidance --------------------------------------------------------------

class MissingClass(InputError):
    """Probe test set contains a class absent from the training set."""


class NonFiniteGradient(NumericalError):
    """Gradient pipeline produced NaN/inf; lambda too small for the
    instance. Retrying with log-domain iterations usually fixes it."""


class DivergenceDetected(NumericalError):
    """Optimization score dropped sharply for many consecutive steps."""


# -- synthesis -------------------------------------------------------------

class InfeasibleSeparation(InputError):
    """Requested centroid separation cannot be realized in the given
    dimension; never silently shrunk."""
