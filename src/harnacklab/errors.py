"""Exception types shared across the package.

There is one class per way the program reacts to a failure: the command-line
driver maps each to an exit code, flow.run ends a run at a step that fails
with ConvexityLost, DegenerateGrid or StabilityViolation, and the monitor
skips a row on OutOfRange.  Every other refused request is a ConfigError,
told apart by its message.
"""


class HarnackLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HarnackLabError):
    """A request the program refuses: a malformed or inconsistent config, or an
    operation outside its domain (ambient, speed, variant or time)."""


class ConvexityLost(HarnackLabError):
    """A principal-curvature vector left the positive cone Gamma_+.

    F = f^p is defined only on Gamma_+, so this is also how a surface state
    that is not strictly convex (some kappa_i <= 0) is reported.
    """


class DegenerateGrid(HarnackLabError):
    """Marker spacing collapsed or spread beyond the trusted ratio."""


class StabilityViolation(HarnackLabError):
    """Time stepping failed: non-finite markers (blow-up / CFL violation), a fixed
    step that left the convex cone or an adaptive run past the step budget,
    each of which ends flow.run as "unstable"; or the radius solver did not settle."""


class OutOfRange(HarnackLabError):
    """A requested time is not covered by the stored trajectory."""
