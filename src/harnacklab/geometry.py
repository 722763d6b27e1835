"""Surface states for rotationally symmetric hypersurfaces.

Ambient spaces are Euclidean space (c = 0) and the unit sphere (c = 1).
Initial data is either a GeodesicSphere, which stays grid-free, or an
(N, d) array of marker coordinates, which assemble() reads as a profile
for n = 2 and as a curve for n = 1.

A geodesic sphere of radius r is perfectly umbilic and stored without a
grid: all spatial derivatives vanish, the state is exact, and it works for
any hypersurface dimension n.

An n = 2 surface of revolution is stored as a closed profile curve with
periodic Lagrangian label w ∈ [0, 2π) sampled at the N offset nodes
w_k = (k + ½)·2π/N (poles are avoided; N must be even so the node set is
symmetric under the double-cover identification w ↦ 2π − w).  A gridded
round sphere is markers_from_radial(ambient, r, N).  For c = 1 the profile
is a curve c(w) on the unit 2-sphere inside x = (c₀, c₁, c₂ cos v,
c₂ sin v) ∈ S³; for c = 0 it is a curve (x(w), ρ(w)) in the half-plane
with x = (x, ρ cos v, ρ sin v).  Running w over the full circle traverses
the meridian twice; the sheets are identified by (w, v) ↦ (2π − w, v + π),
and all assembled fields are automatically consistent across the
identification.  Node N−1−k is node k with the rotation coordinate negated
(unfold, mirror_defect), so the flow stepper advances only the upper half,
w ∈ (0, π), with stencils padded by that reflection (periodic_d1/periodic_d2
with half=True).

An n = 1 state is a convex curve in the plane (c = 0) or in the unit
2-sphere (c = 1), sampled at the same offset nodes.

The induced metric of a surface of revolution is diagonal,
g = diag(E, G) with E = |c′|² and G = ρ², and the second fundamental form
is diagonal as well, so the Weingarten eigenbasis is closed-form:
T = diag(E^{-1/2}, G^{-1/2}) paired with κ = (h_uu/E, h_vv/G).  The outward
normal of the profile is m = c′ × c / |c′| on the sphere and
n = (ρ′, −x′)/|c′| in the half-plane; with these conventions h is positive
definite on convex data and ∂ₜx = −Fν contracts.

assemble() has two tiers: the grid-free one writes a geodesic sphere's base
fields (g, g⁻¹, h, b, h², κ and the eigenbasis) in closed form, the grid one
reads them off the marker profile, and SurfaceState derives every other
field when it is built.  Label derivatives use sixth-order periodic central
differences; Christoffel symbols are assembled from the same differenced
metric, which makes the discrete covariant derivative of g vanish to
machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import symfunc
from .errors import ConfigError, ConvexityLost, DegenerateGrid
from .symfunc import SpeedFunction, as_float, dF_from_eig

# Grids whose marker spacing varies by more than this ratio are rejected.
MAX_SPACING_RATIO = 10.0

# An n = 2 marker array whose mirror_defect exceeds this is no surface of
# revolution; markers_from_radial leaves at most about 7e-16.
MIRROR_RTOL = 1e-12

# Largest curvature cap: the round sphere of curvature κ has metric a² ≈ κ⁻²
# and inverse metric κ², both normal floats up to κ = 1/√tiny ≈ 6.7e153.
MAX_KAPPA_LIMIT = 1.0 / math.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class AmbientSpace:
    """Space form of curvature c ∈ {0, 1} containing hypersurfaces of dim n."""

    c: int
    dim: int

    def __post_init__(self):
        if self.c not in (0, 1):
            raise ConfigError(
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


def initial_radius(ambient: AmbientSpace, r0: Optional[float] = None) -> float:
    """r0 if a config gives it, else 0.8 on the sphere and 1 in flat space."""
    return r0 if r0 is not None else (0.8 if ambient.c == 1 else 1.0)


def profile_parameter(n_nodes: int) -> np.ndarray:
    """Offset label nodes w_k = (k + ½)·2π/N."""
    return (np.arange(n_nodes) + 0.5) * (2.0 * np.pi / n_nodes)


def _node_count_ok(n_nodes: int) -> bool:
    """Every marker grid's node-count rule: even (no node on the pole w = π) and >= 8."""
    return n_nodes >= 8 and n_nodes % 2 == 0


def markers_from_radial(ambient: AmbientSpace, radial, n_nodes: int) -> np.ndarray:
    """Sample a radial graph r(w) into marker coordinates.

    radial may be a scalar, an (N,) array, or a vectorized callable of the
    label.  For c = 1 the markers are points of S²,
    (cos r, sin r cos w, sin r sin w); for c = 0 they are r·(cos w, sin w).
    """
    if not _node_count_ok(n_nodes):
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


def unfold(half: np.ndarray) -> np.ndarray:
    """The (N, d) markers of an n = 2 profile from its upper half, the first N/2 nodes.

    Node N−1−k is node k mirrored: the same point with the rotation
    coordinate (the last column) negated, so the result is exactly
    mirror-symmetric.
    """
    m = half.shape[0]
    full = np.concatenate((half, half[::-1]), axis=0)
    np.negative(full[m:, -1], out=full[m:, -1])
    return full


def mirror_defect(markers: np.ndarray) -> float:
    """How far (N, d) n = 2 markers are from a double cover.

    The largest |node N−1−k mirrored − node k| over the largest |coordinate|:
    0 on an exactly mirror-symmetric array, and about 1e-16 on the float64
    samples of markers_from_radial.
    """
    return float(np.abs(unfold(markers[:markers.shape[0] // 2]) - markers).max()
                 / np.abs(markers).max())


def center_distance(ambient: AmbientSpace, markers: np.ndarray) -> np.ndarray:
    """Distance of each marker from e₀ (geodesic) on the sphere, from the origin in the plane."""
    if ambient.c == 1:
        return np.arccos(np.clip(markers[:, 0], -1.0, 1.0))
    return np.linalg.norm(markers, axis=1)


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

def _shifted(arr, half=False):
    """Views (p1, p2, p3, m1, m2, m3) of arr[k ± 1..3] along axis 0.

    One padded copy serves all six shifts as slices.  The pad wraps around
    (arr is periodic), or with half=True it reflects: arr is then the
    upper half, w ∈ (0, π), of an n = 2 profile's (N, d) markers, and the
    three nodes beyond each end are the three edge nodes mirrored with the
    rotation coordinate (the last column) negated, since node N−1−k of the
    double cover is node k reflected.
    """
    n = arr.shape[0]
    if half:
        pad = np.concatenate((arr[2::-1], arr, arr[:-4:-1]), axis=0)
        np.negative(pad[:3, -1], out=pad[:3, -1])
        np.negative(pad[-3:, -1], out=pad[-3:, -1])
    else:
        pad = np.concatenate((arr[n - 3:], arr, arr[:3]), axis=0)
    return (pad[4:n + 4], pad[5:n + 5], pad[6:n + 6],
            pad[2:n + 2], pad[1:n + 1], pad[0:n])


def periodic_d1(arr: np.ndarray, spacing: float, half: bool = False) -> np.ndarray:
    """Sixth-order first derivative along axis 0 of a periodic array.

    Residual checks contract label-derivative errors against inverse-metric
    factors that grow like N² at the rotation axis of axisymmetric grids, so
    the stencil needs two orders of headroom beyond the fourth-order target
    for the checks themselves.  The shifted operands are slices of one
    padded copy of arr (_shifted), so axis 0 needs N >= 3 nodes.  half=True
    reads arr as the upper half of n = 2 markers and pads by reflection; on
    exactly mirror-symmetric markers it gives, bit for bit, the upper half
    of the wrap-padded derivative of the whole array.
    """
    p1, p2, p3, m1, m2, m3 = _shifted(arr, half)
    return (p3 - m3 + 9.0 * (m2 - p2) + 45.0 * (p1 - m1)) / (60.0 * spacing)


def periodic_d2(arr: np.ndarray, spacing: float, half: bool = False) -> np.ndarray:
    """Sixth-order second derivative along axis 0 of a periodic array.

    Like periodic_d1 it slices one padded copy, so N >= 3, and half=True
    pads the upper half of n = 2 markers by reflection.
    """
    p1, p2, p3, m1, m2, m3 = _shifted(arr, half)
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

    Each tier supplies the base, the fields up to eigT; __post_init__ derives
    the twelve below it, with Γ and ∇h zero on a grid-free state (markers
    None).  Only F^{ij,kl} (d2F) stays lazy, built on first read.
    """

    ambient: AmbientSpace
    speed: SpeedFunction
    t: float
    markers: Optional[np.ndarray]   # (N, d) marker coordinates, None for grid-free
    du: float                       # label spacing (0 for grid-free states)
    radius: Optional[float]         # geodesic-sphere radius

    g: np.ndarray                   # metric g_{ij},            (N, n, n)
    g_inv: np.ndarray               # inverse metric g^{ij}
    h: np.ndarray                   # second fundamental form h_{ij}
    b: np.ndarray                   # inverse h, b^{ij}
    h_sq: np.ndarray                # (h²)_{ij} = h_{ik} g^{kl} h_{lj}
    kappa: np.ndarray               # principal curvatures,     (N, n)
    eigT: np.ndarray                # g-orthonormal Weingarten eigenbasis

    # derived by __post_init__
    christoffel: np.ndarray = field(init=False)     # Γ^k_{ij},  (N, n, n, n)
    nabla_h: np.ndarray = field(init=False)         # ∇_k h_{ij}, (N, n, n, n)
    F: np.ndarray = field(init=False)               # speed,     (N,)
    dF: np.ndarray = field(init=False)              # F^{ij}
    tr_dF: np.ndarray = field(init=False)           # g_{ij} F^{ij} = Σ Φ'
    grad_F: np.ndarray = field(init=False)          # ∇_i F
    hess_F: np.ndarray = field(init=False)          # ∇²_{ij} F
    alpha: np.ndarray = field(init=False)           # ∇²F + F h²
    gamma: np.ndarray = field(init=False)           # b^{kl} ∇_k F ∇_l h
    eta: np.ndarray = field(init=False)             # α − γ
    beta: np.ndarray = field(init=False)            # F^{ij} α_{ij}
    theta: np.ndarray = field(init=False)           # b^{ij} ∇_i F ∇_j F

    def __post_init__(self):
        shape = (self.n_nodes,) + 3 * (self.dim,)
        if self.markers is None:
            self.christoffel, self.nabla_h = np.zeros(shape), np.zeros(shape)
        else:
            # Christoffel symbols from the same differenced metric, so the
            # discrete covariant derivative of g vanishes identically.
            dg = np.zeros(shape, dtype=self.g.dtype)
            dg[:, 0] = periodic_d1(self.g, self.du)
            self.christoffel = 0.5 * (np.einsum("nkl,nilj->nkij", self.g_inv, dg)
                                      + np.einsum("nkl,njli->nkij", self.g_inv, dg)
                                      - np.einsum("nkl,nlij->nkij", self.g_inv, dg))
            self.nabla_h = covariant_derivative(self, self.h, ("lo", "lo"))
        phi = self.speed.dvalue(self.kappa)
        self.F = self.speed.value(self.kappa)
        self.dF = dF_from_eig(phi, self.eigT)
        self.tr_dF = np.sum(phi, axis=-1)
        self.grad_F = grad_scalar(self, self.F)
        self.hess_F = covariant_hessian(self, self.F)
        self.alpha = self.hess_F + self.F[:, None, None] * self.h_sq
        self.gamma = np.einsum("nkl,nk,nlij->nij", self.b, self.grad_F, self.nabla_h)
        self.eta = self.alpha - self.gamma
        self.beta = np.einsum("nij,nij->n", self.dF, self.alpha)
        self.theta = np.einsum("nij,ni,nj->n", self.b, self.grad_F, self.grad_F)

    @property
    def n_nodes(self) -> int:
        return self.g.shape[0]

    @property
    def dim(self) -> int:
        return self.ambient.dim

    @cached_property
    def d2F(self) -> np.ndarray:
        """F^{ij,kl}, (N, n, n, n, n), built from the Weingarten spectrum on
        first read and kept; assemblies that never read it never build it."""
        return symfunc.d2F_from_eig(self.speed, self.kappa, self.eigT)

    def d2F_bilinear(self, A, C):
        """F^{ij,kl} A_{ij} C_{kl} at every node."""
        return np.einsum("nijkl,nij,nkl->n", self.d2F, A, C)


# ---------------------------------------------------------------------------
# profile differential geometry (shared by assembly and the flow stepper)
# ---------------------------------------------------------------------------

def _profile_geometry(ambient, markers, half=False):
    """Metric component, normal and curvature components of a marker profile.

    Returns (E, normal, h_uu, kappa), E = |c′|² and h_uu = −c″·normal from the
    label derivatives c′ and c″; for n = 2 the rotation components of position
    and normal are markers[:, -1] and normal[:, -1].  half=True reads markers
    as the upper half of an n = 2 profile on 2·len(markers) nodes, which the
    stencils pad by reflection.  This is the only validation of each RK4
    stage's E, spacing and κ, and of each assembly's E and spacing:
    DegenerateGrid if E is not positive and finite or the spacing √E
    varies by a ratio above MAX_SPACING_RATIO (10), ConvexityLost if any
    principal curvature is not finite or is <= 0.  An assembled state checks
    κ's cone once more when it evaluates F (SurfaceState, by speed.value and
    speed.dvalue).
    """
    n_nodes = markers.shape[0]
    du = 2.0 * np.pi / (2 * n_nodes if half else n_nodes)
    cp = periodic_d1(markers, du, half)
    cpp = periodic_d2(markers, du, half)
    E = symfunc._column_sum(cp * cp)
    # two reductions check every node: a NaN fails both comparisons
    lo, hi = E.min(), E.max()
    if not (lo > 0 and hi < np.inf):
        raise DegenerateGrid("profile tangent degenerated")
    # diagnose bad parameterizations before curvature: a bunched-up grid
    # produces garbage kappa and would misreport as a convexity failure
    spacing = np.sqrt(E)
    ratio = np.sqrt(hi) / np.sqrt(lo)       # √ is monotone: max √E / min √E
    if ratio > MAX_SPACING_RATIO:
        raise DegenerateGrid(
            f"marker spacing ratio {ratio:.17g} exceeds {MAX_SPACING_RATIO:g}")

    normal = np.empty_like(cp)
    if ambient.c == 1:
        # cp × markers by components: the same IEEE operations as np.cross
        # at about half its per-call overhead
        for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.subtract(cp[:, j] * markers[:, k], cp[:, k] * markers[:, j], out=normal[:, i])
    else:
        np.multiply(cp[:, ::-1], (1.0, -1.0), out=normal)      # (x′, ρ′) ↦ (ρ′, −x′)
    normal /= spacing[:, None]

    h_uu = -symfunc._column_sum(cpp * normal)
    kappa = np.empty((n_nodes, ambient.dim), dtype=E.dtype)
    np.divide(h_uu, E, out=kappa[:, 0])
    if ambient.dim == 2:
        # the rotation components are the last coordinates for both ambients
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(normal[:, -1], markers[:, -1], out=kappa[:, 1])

    if not (kappa.min() > 0 and kappa.max() < np.inf):
        raise ConvexityLost(
            f"surface is not strictly convex (min kappa = {np.nanmin(kappa):.6g})")
    return E, normal, h_uu, kappa


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
    with np.errstate(over="ignore"):        # κ of a subnormal radius overflows to inf
        if _umbilic_kappa(ambient, r) > MAX_KAPPA_LIMIT:
            raise ConfigError(f"a geodesic radius of {r:g} has curvature above the largest "
                              f"cap {MAX_KAPPA_LIMIT:.6g}")


def _umbilic_kappa(ambient, r):
    """Principal curvature of the geodesic sphere of radius r: cot r, or 1/r in the plane."""
    return np.cos(r) / np.sin(r) if ambient.c == 1 else 1.0 / r


def _validated_markers(ambient, markers):
    if ambient.dim not in (1, 2):
        raise ConfigError(f"marker grids exist only for dimension 1 or 2, got {ambient.dim}; "
                          "higher dimensions have only the grid-free sphere tier "
                          "(a GeodesicSphere, or amplitude = 0 in a config)")
    markers = as_float(markers)
    want = 3 if ambient.c == 1 else 2
    if markers.ndim != 2 or markers.shape[1] != want:
        raise ConfigError(f"markers must have shape (N, {want}) for c = {ambient.c}")
    if not _node_count_ok(markers.shape[0]):
        raise ConfigError(f"marker count must be even and >= 8, got {markers.shape[0]}")
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
    a, kap = (np.sin(r) if ambient.c == 1 else r), _umbilic_kappa(ambient, r)
    eye = np.eye(n)[None]
    return SurfaceState(
        ambient=ambient, speed=speed, t=t, markers=None, du=0.0, radius=float(r),
        g=a * a * eye.copy(), g_inv=eye / (a * a), h=kap * a * a * eye.copy(),
        b=eye / (kap * a * a), h_sq=kap * kap * a * a * eye.copy(),
        kappa=np.full((1, n), kap), eigT=eye / a)


def _assemble_grid(ambient, speed, markers, t):
    n_nodes = markers.shape[0]
    du = 2.0 * np.pi / n_nodes
    E, normal, h_uu, kappa = _profile_geometry(ambient, markers)

    n = ambient.dim
    g = np.zeros((n_nodes, n, n), dtype=markers.dtype)
    h = np.zeros_like(g)
    eigT = np.zeros_like(g)
    g[:, 0, 0] = E
    h[:, 0, 0] = h_uu
    eigT[:, 0, 0] = 1.0 / np.sqrt(E)
    if n == 2:
        rho = markers[:, -1]
        G = rho * rho
        g[:, 1, 1] = G
        h[:, 1, 1] = rho * normal[:, -1]
        eigT[:, 1, 1] = 1.0 / np.sqrt(G)

    g_inv = np.zeros_like(g)
    b = np.zeros_like(g)
    idx = np.arange(n)
    g_inv[:, idx, idx] = 1.0 / g[:, idx, idx]
    b[:, idx, idx] = 1.0 / h[:, idx, idx]
    h_sq = np.einsum("nik,nkl,nlj->nij", h, g_inv, h)

    return SurfaceState(
        ambient=ambient, speed=speed, t=t, markers=markers, du=du, radius=None,
        g=g, g_inv=g_inv, h=h, b=b, h_sq=h_sq, kappa=kappa, eigT=eigT)


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

