"""harnacklab: a numerical laboratory for contracting curvature flows.

Hypersurfaces move by ∂ₜx = −F ν where F is a positive power of a strictly
monotone, 1-homogeneous, convex curvature function, in Euclidean space or in
the unit sphere.  The package provides

- ``symfunc``  — curvature functions, speeds and the spectral F^{ij}, F^{ij,kl},
- ``geometry`` — assembled surface states with covariant derivative machinery,
- ``flow``     — Lagrangian marker evolution plus exact sphere solutions,
- ``harnack``  — differential Harnack quantities as runtime monitors,
- ``verify``   — evolution-identity residuals and matrix-inequality scans,
- ``cli``      — the ``harnack-lab`` command-line driver.
"""

from . import errors, symfunc, geometry, flow, harnack, verify  # noqa: F401

__version__ = "0.1.0"
