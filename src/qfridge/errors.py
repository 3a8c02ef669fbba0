"""Exception hierarchy for the refrigerator toolkit.

Every error raised on purpose by this package derives from FridgeError, so
callers can catch one base class at the CLI boundary and map it to an exit
code.
"""


class FridgeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FridgeError):
    """Invalid or inconsistent run configuration (bad key, bad range)."""


class DegenerateKernelError(FridgeError):
    """The 64x64 generator has a kernel of dimension != 1, so there is no
    unique steady state to return."""


class IntegrationError(FridgeError):
    """Trajectory invariants (trace / Hermiticity / positivity drift)
    exceeded their thresholds. A negative eigenvalue means the step is too
    large; trace or Hermiticity drift is round-off piled up over very many
    steps, since the step propagator preserves both exactly."""


class UndefinedChiError(FridgeError):
    """chi = Q_c/tau is undefined because tau = 0 (initial state already
    stationary, e.g. at the Carnot point with no coherence)."""


class PoleError(FridgeError):
    """A closed-form expression was evaluated at a pole of its rational
    structure (vanishing denominator)."""


class BoundaryMaximumError(FridgeError):
    """The grid scan found the largest value at an endpoint of the bracket:
    there is no interior maximum to refine."""
