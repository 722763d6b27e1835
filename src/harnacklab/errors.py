"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that tests and the command-line driver can dispatch on type rather than on
message text.
"""


class HarnackLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HarnackLabError):
    """A configuration file or option set is malformed or inconsistent."""


class ConvexityLost(HarnackLabError):
    """A principal-curvature vector left the positive cone Gamma_+.

    F = f^p is defined only on Gamma_+, so this is also how a surface state
    that stopped being strictly convex (some kappa_i <= 0) is reported.
    """


class DegenerateGrid(HarnackLabError):
    """Marker spacing collapsed or spread beyond the trusted ratio."""


class UnsupportedAmbient(HarnackLabError):
    """Requested ambient curvature is outside {0 (Euclidean), 1 (sphere)}."""


class StabilityViolation(HarnackLabError):
    """Time stepping produced non-finite fields (blow-up / CFL violation)."""


class DomainExceeded(HarnackLabError):
    """A closed-form solution was queried outside its interval of existence."""


class OutOfRange(HarnackLabError):
    """A requested time is not covered by the stored trajectory."""


class LabelMismatch(HarnackLabError):
    """Two states do not share the same Lagrangian grid labeling."""


class WrongSpeed(HarnackLabError):
    """The operation needs a specific curvature function (e.g. the mean)."""


class WrongAmbient(HarnackLabError):
    """The operation is only defined for the other ambient curvature."""
