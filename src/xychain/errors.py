"""Exception types shared across the package.

Every error raised deliberately by xychain derives from :class:`XYChainError`,
so callers (and the command-line driver) can distinguish domain failures from
programming bugs.  Argument checks that raise a plain ``ValueError`` are the
exception: ``ChainSpec``, the :mod:`xychain.linalg` shape checks,
``qracah_eval``, ``phi43_terminating_exact``, ``_check_family`` and the mode
count of ``eigenvector_crosscheck``.
"""


class XYChainError(Exception):
    """Base class for all xychain errors."""


class DenominatorVanishes(XYChainError):
    """A q-Pochhammer factor in a series denominator is exactly zero.

    Carries the term index ``k`` and the offending parameter so the caller can
    see which factor ``(1 - p q^k)`` vanished.
    """

    def __init__(self, k, param):
        self.k = k
        self.param = param
        super().__init__(
            f"denominator q-Pochhammer factor (1 - p*q^k) vanishes at "
            f"k={k} for p={param!r}"
        )


class InvalidShiftedParams(XYChainError):
    """The family shift map sends the parameters out of the admissible domain."""


class InvalidParameterRegime(XYChainError):
    """Parameters violate a positivity / nondegeneracy condition.

    Raised when a square-root radicand is negative beyond tolerance, when a
    structural denominator factor vanishes, or when basic constraints
    (``0 < q < 1``, ``N >= 1``, finite reals) fail.
    """


class NoValidParameters(XYChainError):
    """A parameter scan found no draw satisfying the requested validity level."""


class ConvergenceFailure(XYChainError):
    """An iterative numerical routine exceeded its iteration budget."""


class SizeCapExceeded(XYChainError):
    """A requested problem size is beyond the supported dense-computation cap."""


class ConfigError(XYChainError, ValueError):
    """A run configuration or a scan box is malformed or inconsistent; as a
    bad argument of :func:`~xychain.chain.parameter_scan` or
    :func:`~xychain.chain.validate_draw` it is also a ``ValueError``."""
