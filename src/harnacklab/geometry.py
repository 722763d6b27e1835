"""Surface states for rotationally symmetric hypersurfaces.

Ambient spaces are Euclidean space (c = 0) and the unit sphere (c = 1).
Initial data is either a GeodesicSphere, which stays grid-free, or an
(N, d) array of marker coordinates, which assemble() reads as a profile
for n = 2 and as a curve for n = 1.  The assembled state has one of three
kinds:

geodesic-sphere
    A perfectly umbilic sphere of radius r, stored without a grid.  All
    spatial derivatives vanish; the state is exact and works for any
    hypersurface dimension n.

axisymmetric-profile (n = 2)
    A surface of revolution.  The profile is stored as a closed curve with
    periodic Lagrangian label w ∈ [0, 2π) sampled at the N offset nodes
    w_k = (k + ½)·2π/N (poles are avoided; N must be even so the node set
    is symmetric under the double-cover identification w ↦ 2π − w).  A
    gridded round sphere is markers_from_radial(ambient, r, N).

    For c = 1 the profile is a curve c(w) on the unit 2-sphere inside
    x = (c₀, c₁, c₂ cos v, c₂ sin v) ∈ S³; for c = 0 it is a curve
    (x(w), ρ(w)) in the half-plane with x = (x, ρ cos v, ρ sin v).
    Running w over the full circle traverses the meridian twice; the sheets
    are identified by (w, v) ↦ (2π − w, v + π), and all assembled fields are
    automatically consistent across the identification.

closed-curve (n = 1)
    A convex curve in the plane (c = 0) or in the unit 2-sphere (c = 1),
    sampled at the same offset nodes.

The induced metric of a surface of revolution is diagonal,
g = diag(E, G) with E = |c′|² and G = ρ², and the second fundamental form
is diagonal as well, so the Weingarten eigenbasis is closed-form:
T = diag(E^{-1/2}, G^{-1/2}) paired with κ = (h_uu/E, h_vv/G).  The outward
normal of the profile is m = c′ × c / |c′| on the sphere and
n = (ρ′, −x′)/|c′| in the half-plane; with these conventions h is positive
definite on convex data and ∂ₜx = −Fν contracts.

Label derivatives use sixth-order periodic central differences; Christoffel
symbols are assembled from the same differenced metric, which makes the
discrete covariant derivative of g vanish to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import symfunc
from .errors import (ConfigError, ConvexityLost, DegenerateGrid,
                     UnsupportedAmbient)
from .symfunc import SpeedFunction, as_float, dF_from_eig

# Grids whose marker spacing varies by more than this ratio are rejected.
MAX_SPACING_RATIO = 10.0


@dataclass(frozen=True)
class AmbientSpace:
    """Space form of curvature c ∈ {0, 1} containing hypersurfaces of dim n."""

    c: int
    dim: int

    def __post_init__(self):
        if self.c not in (0, 1):
            raise UnsupportedAmbient(
                f"ambient curvature must be 0 (Euclidean) or 1 (sphere), got {self.c}")
        if self.dim < 1:
            raise ConfigError(f"hypersurface dimension must be >= 1, got {self.dim}")


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicSphere:
    """Grid-free round sphere of geodesic radius r, for any dimension n."""

    radius: float


def default_radius(ambient: AmbientSpace) -> float:
    """Initial radius when a config gives none: 0.8 on the sphere, 1 in flat space."""
    return 0.8 if ambient.c == 1 else 1.0


def profile_parameter(n_nodes: int) -> np.ndarray:
    """Offset label nodes w_k = (k + ½)·2π/N."""
    return (np.arange(n_nodes) + 0.5) * (2.0 * np.pi / n_nodes)


def markers_from_radial(ambient: AmbientSpace, radial, n_nodes: int) -> np.ndarray:
    """Sample a radial graph r(w) into marker coordinates.

    radial may be a scalar, an (N,) array, or a vectorized callable of the
    label.  For c = 1 the markers are points of S²,
    (cos r, sin r cos w, sin r sin w); for c = 0 they are r·(cos w, sin w).
    """
    if n_nodes < 8 or n_nodes % 2:
        raise ConfigError(f"profile grids need an even node count >= 8, got {n_nodes}")
    w = profile_parameter(n_nodes)
    r = radial(w) if callable(radial) else np.broadcast_to(np.asarray(radial, float), w.shape)
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        raise ConfigError("radial profile must be positive and finite")
    if ambient.c == 1:
        if np.any(r >= np.pi):
            raise ConfigError("spherical radial profile must stay below pi")
        return np.stack([np.cos(r), np.sin(r) * np.cos(w), np.sin(r) * np.sin(w)], axis=1)
    return np.stack([r * np.cos(w), r * np.sin(w)], axis=1)


def cos_mode_radial(r0: float, amplitude: float = 0.0, mode: int = 2) -> Callable:
    """Radial profile r(w) = r0·(1 + amplitude·cos(mode·w)).

    Even cosine modes keep the double-cover identification exact.
    """
    if mode % 2:
        raise ConfigError("perturbation mode must be even for a valid profile")

    def radial(w):
        return r0 * (1.0 + amplitude * np.cos(mode * w))

    return radial


# ---------------------------------------------------------------------------
# periodic finite differences (label direction)
# ---------------------------------------------------------------------------

def _shifted(arr):
    """Views (p1, p2, p3, m1, m2, m3) of arr[k ± 1..3] along axis 0, periodic.

    One wrap-padded copy serves all six shifts as slices.
    """
    n = arr.shape[0]
    pad = np.concatenate((arr[n - 3:], arr, arr[:3]), axis=0)
    return (pad[4:n + 4], pad[5:n + 5], pad[6:n + 6],
            pad[2:n + 2], pad[1:n + 1], pad[0:n])


def periodic_d1(arr: np.ndarray, spacing: float) -> np.ndarray:
    """Sixth-order first derivative along axis 0 of a periodic array.

    Residual checks contract label-derivative errors against inverse-metric
    factors that grow like N² at the rotation axis of axisymmetric grids, so
    the stencil needs two orders of headroom beyond the fourth-order target
    for the checks themselves.  The shifted operands are slices of one
    wrap-padded copy of arr, so axis 0 needs N >= 3 nodes.
    """
    p1, p2, p3, m1, m2, m3 = _shifted(arr)
    return (p3 - m3 + 9.0 * (m2 - p2) + 45.0 * (p1 - m1)) / (60.0 * spacing)


def periodic_d2(arr: np.ndarray, spacing: float) -> np.ndarray:
    """Sixth-order second derivative along axis 0 of a periodic array.

    Like periodic_d1 it slices one wrap-padded copy, so N >= 3.
    """
    p1, p2, p3, m1, m2, m3 = _shifted(arr)
    return (2.0 * (p3 + m3) - 27.0 * (p2 + m2) + 270.0 * (p1 + m1)
            - 490.0 * arr) / (180.0 * spacing ** 2)


# ---------------------------------------------------------------------------
# the assembled state
# ---------------------------------------------------------------------------

@dataclass
class SurfaceState:
    """All pointwise fields of one strictly convex hypersurface.

    Tensor components refer to the Lagrangian coordinate frame (label u and,
    for n = 2, the rotation angle v).  Leading axis is the node index.
    """

    ambient: AmbientSpace
    speed: SpeedFunction
    t: float
    kind: str                       # geodesic-sphere | axisymmetric-profile | closed-curve
    markers: Optional[np.ndarray]   # (N, d) marker coordinates, None for grid-free
    du: float                       # label spacing (0 for grid-free states)
    radius: Optional[float]         # geodesic-sphere radius
    normal: Optional[np.ndarray]    # profile normal at the markers

    g: np.ndarray                   # metric g_{ij},            (N, n, n)
    g_inv: np.ndarray               # inverse metric g^{ij}
    h: np.ndarray                   # second fundamental form h_{ij}
    b: np.ndarray                   # inverse h, b^{ij}
    h_sq: np.ndarray                # (h²)_{ij} = h_{ik} g^{kl} h_{lj}
    kappa: np.ndarray               # principal curvatures,     (N, n)
    eigT: np.ndarray                # g-orthonormal Weingarten eigenbasis
    christoffel: np.ndarray         # Γ^k_{ij},                 (N, n, n, n)
    nabla_h: Optional[np.ndarray] = None    # ∇_k h_{ij},       (N, n, n, n)

    # filled by _attach_speed_quantities
    F: Optional[np.ndarray] = None          # speed,            (N,)
    dF: Optional[np.ndarray] = None         # F^{ij}
    tr_dF: Optional[np.ndarray] = None      # g_{ij} F^{ij} = Σ Φ'
    grad_F: Optional[np.ndarray] = None     # ∇_i F
    hess_F: Optional[np.ndarray] = None     # ∇²_{ij} F
    alpha: Optional[np.ndarray] = None      # ∇²F + F h²
    gamma: Optional[np.ndarray] = None      # b^{kl} ∇_k F ∇_l h
    eta: Optional[np.ndarray] = None        # α − γ
    beta: Optional[np.ndarray] = None       # F^{ij} α_{ij}
    theta: Optional[np.ndarray] = None      # b^{ij} ∇_i F ∇_j F

    @property
    def n_nodes(self) -> int:
        return self.g.shape[0]

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def d2F_bilinear(self, A, C):
        """F^{ij,kl} A_{ij} C_{kl} at every node (polarized quadratic form)."""
        return symfunc.d2F_bilinear_from_eig(self.speed, self.kappa, self.eigT, A, C)

    def d2F_quadratic(self, eta):
        return symfunc.d2F_quadratic_from_eig(self.speed, self.kappa, self.eigT, eta)


# ---------------------------------------------------------------------------
# profile differential geometry (shared by assembly and the flow stepper)
# ---------------------------------------------------------------------------

def _profile_geometry(ambient, markers):
    """First/second label derivatives, E, normal and curvature components.

    Returns (cp, cpp, E, normal, h_uu, kappa, rho, n_rot) where rho and
    n_rot (the rotation components of position and normal) are None for
    curves.  Raises DegenerateGrid if E = |c′|² is not positive and finite
    or the marker spacing √E varies by a ratio above MAX_SPACING_RATIO (10),
    and ConvexityLost if any principal curvature is <= 0.
    """
    n_nodes = markers.shape[0]
    du = 2.0 * np.pi / n_nodes
    cp = periodic_d1(markers, du)
    cpp = periodic_d2(markers, du)
    E = np.sum(cp * cp, axis=1)
    if not np.all(np.isfinite(E)) or np.any(E <= 0):
        raise DegenerateGrid("profile tangent degenerated")
    # diagnose bad parameterizations before curvature: a bunched-up grid
    # produces garbage kappa and would misreport as a convexity failure
    spacing = np.sqrt(E)
    ratio = np.max(spacing) / np.min(spacing)
    if ratio > MAX_SPACING_RATIO:
        raise DegenerateGrid(
            f"marker spacing ratio {ratio:.3g} exceeds {MAX_SPACING_RATIO:g}")

    if ambient.c == 1:
        # cp × markers by components: the same IEEE operations as np.cross
        # at about half its per-call overhead
        a0, a1, a2 = cp.T
        b0, b1, b2 = markers.T
        normal = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0],
                          axis=1) / spacing[:, None]
    else:
        normal = np.stack([cp[:, 1], -cp[:, 0]], axis=1) / spacing[:, None]

    h_uu = -np.sum(cpp * normal, axis=1)
    k1 = h_uu / E

    if ambient.dim == 1:
        kappa = k1[:, None]
        rho = n_rot = None
    else:
        rho = markers[:, 2] if ambient.c == 1 else markers[:, 1]
        n_rot = normal[:, 2] if ambient.c == 1 else normal[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            k2 = n_rot / rho
        kappa = np.stack([k1, k2], axis=1)

    if not np.all(np.isfinite(kappa)) or np.any(kappa <= 0):
        raise ConvexityLost(
            f"surface stopped being strictly convex (min kappa = {np.nanmin(kappa):.6g})")
    return cp, cpp, E, normal, h_uu, kappa, rho, n_rot


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble(initial, ambient: AmbientSpace, speed: SpeedFunction,
             t: float = 0.0) -> SurfaceState:
    """Build the full SurfaceState of a GeodesicSphere or an (N, d) marker array.

    Markers are (N, 3) points of S² for c = 1 and (N, 2) plane points for
    c = 0: a profile (x, ρ) when n = 2, a curve when n = 1.
    """
    if isinstance(initial, GeodesicSphere):
        _validate_radius(ambient, initial.radius)
        return _assemble_umbilic(ambient, speed, initial.radius, t)
    return _assemble_grid(ambient, speed, _validated_markers(ambient, initial), t)


def _validate_radius(ambient, r):
    if not np.isfinite(r) or r <= 0:
        raise ConfigError(f"geodesic radius must be positive, got {r!r}")
    if ambient.c == 1 and r >= np.pi / 2:
        raise ConvexityLost(
            f"geodesic spheres in the unit sphere are strictly convex only for r < pi/2, got {r:g}")


def _validated_markers(ambient, markers):
    if ambient.dim not in (1, 2):
        raise ConfigError(f"marker grids exist only for dimension 1 or 2, got {ambient.dim}; "
                          "higher dimensions have only the grid-free sphere tier "
                          "(a GeodesicSphere, or amplitude = 0 in a config)")
    markers = as_float(markers)
    want = 3 if ambient.c == 1 else 2
    if markers.ndim != 2 or markers.shape[1] != want:
        raise ConfigError(f"markers must have shape (N, {want}) for c = {ambient.c}")
    if markers.shape[0] < 8 or markers.shape[0] % 2:
        raise ConfigError("marker count must be even and >= 8")
    if not np.all(np.isfinite(markers)):
        raise ConfigError("markers contain non-finite entries")
    if ambient.c == 1:
        norms = np.linalg.norm(markers, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-6:
            raise ConfigError("spherical profile markers must lie on the unit sphere")
        markers = markers / norms[:, None]
    return markers


def _assemble_umbilic(ambient, speed, r, t):
    """Grid-free geodesic sphere: every field is closed-form, gradients vanish."""
    n = ambient.dim
    if ambient.c == 1:
        a, kap = np.sin(r), np.cos(r) / np.sin(r)
    else:
        a, kap = r, 1.0 / r
    eye = np.eye(n)[None]
    kappa = np.full((1, n), kap)
    state = SurfaceState(
        ambient=ambient, speed=speed, t=t, kind="geodesic-sphere",
        markers=None, du=0.0, radius=float(r), normal=None,
        g=a * a * eye.copy(), g_inv=eye / (a * a), h=kap * a * a * eye.copy(),
        b=eye / (kap * a * a), h_sq=kap * kap * a * a * eye.copy(),
        kappa=kappa, eigT=eye / a, christoffel=np.zeros((1, n, n, n)),
        nabla_h=np.zeros((1, n, n, n)),
    )
    _attach_speed_quantities(state)
    return state


def _assemble_grid(ambient, speed, markers, t):
    n_nodes = markers.shape[0]
    du = 2.0 * np.pi / n_nodes
    cp, cpp, E, normal, h_uu, kappa, rho, n_rot = _profile_geometry(ambient, markers)

    n = ambient.dim
    g = np.zeros((n_nodes, n, n), dtype=markers.dtype)
    h = np.zeros_like(g)
    eigT = np.zeros_like(g)
    g[:, 0, 0] = E
    h[:, 0, 0] = h_uu
    eigT[:, 0, 0] = 1.0 / np.sqrt(E)
    if n == 2:
        G = rho * rho
        g[:, 1, 1] = G
        h[:, 1, 1] = rho * n_rot
        eigT[:, 1, 1] = 1.0 / np.sqrt(G)

    g_inv = np.zeros_like(g)
    b = np.zeros_like(g)
    idx = np.arange(n)
    g_inv[:, idx, idx] = 1.0 / g[:, idx, idx]
    b[:, idx, idx] = 1.0 / h[:, idx, idx]
    h_sq = np.einsum("nik,nkl,nlj->nij", h, g_inv, h)

    # Christoffel symbols from the same differenced metric, so the discrete
    # covariant derivative of g vanishes identically.
    dg = np.zeros((n_nodes, n, n, n), dtype=markers.dtype)
    dg[:, 0] = periodic_d1(g, du)
    christoffel = 0.5 * (np.einsum("nkl,nilj->nkij", g_inv, dg)
                         + np.einsum("nkl,njli->nkij", g_inv, dg)
                         - np.einsum("nkl,nlij->nkij", g_inv, dg))

    state = SurfaceState(
        ambient=ambient, speed=speed, t=t,
        kind="axisymmetric-profile" if n == 2 else "closed-curve",
        markers=markers, du=du, radius=None, normal=normal,
        g=g, g_inv=g_inv, h=h, b=b, h_sq=h_sq, kappa=kappa, eigT=eigT,
        christoffel=christoffel,
    )
    state.nabla_h = covariant_derivative(state, h, ("lo", "lo"))
    _attach_speed_quantities(state)
    return state


def _attach_speed_quantities(state):
    """Fill F, F^{ij}, gradients and the auxiliary tensors α, γ, η, β, θ."""
    speed = state.speed
    state.F = speed.value(state.kappa)
    state.dF = dF_from_eig(speed, state.kappa, state.eigT)
    state.tr_dF = np.sum(speed.dvalue(state.kappa), axis=-1)
    state.grad_F = grad_scalar(state, state.F)
    state.hess_F = covariant_hessian(state, state.F)
    state.alpha = state.hess_F + state.F[:, None, None] * state.h_sq
    state.gamma = np.einsum("nkl,nk,nlij->nij", state.b, state.grad_F, state.nabla_h)
    state.eta = state.alpha - state.gamma
    state.beta = np.einsum("nij,nij->n", state.dF, state.alpha)
    state.theta = np.einsum("nij,ni,nj->n", state.b, state.grad_F, state.grad_F)


# ---------------------------------------------------------------------------
# covariant derivative machinery
# ---------------------------------------------------------------------------

def partial_u(state: SurfaceState, fld: np.ndarray) -> np.ndarray:
    """∂/∂u along the label direction; zero on grid-free states."""
    fld = as_float(fld)
    if state.du == 0.0:
        return np.zeros_like(fld)
    return periodic_d1(fld, state.du)


def grad_scalar(state: SurfaceState, phi: np.ndarray) -> np.ndarray:
    """∇_i φ of a per-node scalar; only the label slot is nonzero."""
    phi = as_float(phi)
    out = np.zeros((state.n_nodes, state.dim), dtype=phi.dtype)
    out[:, 0] = partial_u(state, phi)
    return out


def covariant_hessian(state: SurfaceState, phi: np.ndarray) -> np.ndarray:
    """∇²_{ij} φ = ∂_i ∂_j φ − Γ^k_{ij} ∇_k φ for a per-node scalar."""
    phi = as_float(phi)
    n = state.dim
    d2 = np.zeros((state.n_nodes, n, n), dtype=phi.dtype)
    if state.du != 0.0:
        d2[:, 0, 0] = periodic_d2(phi, state.du)
    grad = grad_scalar(state, phi)
    return d2 - np.einsum("nkij,nk->nij", state.christoffel, grad)


def covariant_derivative(state: SurfaceState, tensor: np.ndarray,
                         index_types: tuple) -> np.ndarray:
    """∇_k T with the derivative index first.

    index_types lists each tensor slot as "up" or "lo"; the result has shape
    (N, n) + tensor.shape[1:], component [k, ...] = ∇_k T[...].
    """
    tensor = as_float(tensor)
    if tensor.ndim - 1 != len(index_types):
        raise ConfigError("index_types must describe every tensor slot")
    n = state.dim
    out = np.zeros((state.n_nodes, n) + tensor.shape[1:], dtype=tensor.dtype)
    out[:, 0] = partial_u(state, tensor)
    for pos, typ in enumerate(index_types):
        moved = np.moveaxis(tensor, pos + 1, -1)
        if typ == "up":
            corr = np.einsum("nikm,n...m->nk...i", state.christoffel, moved)
        elif typ == "lo":
            corr = -np.einsum("nmki,n...m->nk...i", state.christoffel, moved)
        else:
            raise ConfigError(f"index type must be 'up' or 'lo', got {typ!r}")
        out += np.moveaxis(corr, -1, pos + 2)
    return out


def box_op(state: SurfaceState, fld: np.ndarray, index_types: tuple = ()) -> np.ndarray:
    """Elliptic operator □ = F^{ij} ∇²_{ij} applied to a scalar or tensor field."""
    if not index_types:
        return np.einsum("nij,nij->n", state.dF, covariant_hessian(state, fld))
    first = covariant_derivative(state, fld, index_types)
    second = covariant_derivative(state, first, ("lo",) + tuple(index_types))
    return np.einsum("nkl,nkl...->n...", state.dF, second)


def gauss_codazzi_residual(state: SurfaceState):
    """Max-norm residuals of the Gauss and Codazzi compatibility equations.

    For the revolution metric E(u) du² + ρ(u)² dv² the Gauss equation
    K = c + κ₁κ₂ reduces to ρ_ss + (c + κ₁κ₂) ρ = 0 with s the profile
    arclength; the signed ρ is smooth through the rotation axis (unlike
    √(g_vv) = |ρ|), so the check stays division-free and convergent there.
    Codazzi is the antisymmetry defect of ∇h in its first two slots.  Both
    are exact zeros on grid-free umbilic states.
    """
    if state.du == 0.0 or state.dim == 1:
        return 0.0, 0.0
    E = state.g[:, 0, 0]
    rho = state.markers[:, 2] if state.ambient.c == 1 else state.markers[:, 1]
    rho_u = periodic_d1(rho, state.du)
    rho_ss = (periodic_d2(rho, state.du)
              - rho_u * periodic_d1(E, state.du) / (2.0 * E)) / E
    kap_prod = state.kappa[:, 0] * state.kappa[:, 1]
    defect = rho_ss + (state.ambient.c + kap_prod) * rho
    gauss = np.max(np.abs(defect)) / (1.0 + np.max(np.abs(rho_ss)))
    anti = state.nabla_h - np.swapaxes(state.nabla_h, 1, 2)
    codazzi = np.max(np.abs(anti)) / (1.0 + np.max(np.abs(state.nabla_h)))
    return float(gauss), float(codazzi)
