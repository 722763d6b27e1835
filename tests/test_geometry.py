"""Discrete-geometry checks: assembled states against round-sphere formulas,
compatibility identities that hold exactly, and stencil convergence."""

import numpy as np
import numpy.testing as npt
import pytest

from harnacklab import flow, geometry as geo
from harnacklab import symfunc as sf
from harnacklab.errors import ConfigError, ConvexityLost, DegenerateGrid

MEAN1 = sf.SpeedFunction(sf.mean(), 1.0)

SPHERE = geo.AmbientSpace(1, 2)
FLAT = geo.AmbientSpace(0, 2)


def _perturbed(ambient, n_nodes, r0=None, amplitude=0.05, mode=2, speed=MEAN1):
    if r0 is None:
        r0 = geo.default_radius(ambient)
    mk = geo.markers_from_radial(ambient, geo.cos_mode_radial(r0, amplitude, mode), n_nodes)
    return geo.assemble(mk, ambient, speed)


# ---------------------------------------------------------------------------
# umbilic (grid-free) tier: everything is a closed-form round-sphere value
# ---------------------------------------------------------------------------

def test_umbilic_sphere_in_sphere():
    r = 0.8
    st = geo.assemble(geo.GeodesicSphere(r), SPHERE, MEAN1, t=0.0)
    assert st.kind == "geodesic-sphere" and st.n_nodes == 1
    npt.assert_allclose(st.kappa, 1.0 / np.tan(r), rtol=1e-14)
    npt.assert_allclose(st.g, np.sin(r) ** 2 * np.eye(2)[None], atol=1e-15)
    npt.assert_allclose(st.h, np.sin(r) ** 2 / np.tan(r) * np.eye(2)[None], rtol=1e-14)
    npt.assert_allclose(st.F, 2.0 / np.tan(r), rtol=1e-14)
    npt.assert_array_equal(st.grad_F, 0.0)
    npt.assert_allclose(st.theta, 0.0, atol=1e-30)
    # beta = F^{ij}(∇²F + F h²)_{ij} = F tr(F') κ² on a round sphere
    npt.assert_allclose(st.beta, 2.0 * (2.0 / np.tan(r)) / np.tan(r) ** 2, rtol=1e-13)


def test_umbilic_sphere_in_euclidean():
    r = 1.5
    st = geo.assemble(geo.GeodesicSphere(r), FLAT, MEAN1, t=0.0)
    npt.assert_allclose(st.kappa, 1.0 / r, rtol=1e-15)
    npt.assert_allclose(st.g, r ** 2 * np.eye(2)[None], rtol=1e-15)
    npt.assert_allclose(st.F, 2.0 / r, rtol=1e-15)


def test_umbilic_radius_validation():
    with pytest.raises(ConvexityLost):
        geo.assemble(geo.GeodesicSphere(2.0), SPHERE, MEAN1)   # past the equator
    with pytest.raises(ConfigError):
        geo.assemble(geo.GeodesicSphere(-1.0), FLAT, MEAN1)


# ---------------------------------------------------------------------------
# gridded tier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ambient,r0,expected", [(SPHERE, 0.8, 1.0 / np.tan(0.8)),
                                                 (FLAT, 1.5, 1.0 / 1.5)])
def test_unperturbed_grid_recovers_round_curvatures(ambient, r0, expected):
    st = _perturbed(ambient, 64, r0=r0, amplitude=0.0)
    npt.assert_allclose(st.kappa, expected, rtol=1e-7)
    npt.assert_allclose(st.F, 2.0 * expected, rtol=1e-7)
    # stencil refinement should buy roughly six orders per doubling
    err = lambda n: np.max(np.abs(_perturbed(ambient, n, r0=r0, amplitude=0.0).kappa
                                  / expected - 1.0))
    assert err(128) < err(64) / 30.0


def test_grid_marker_radii():
    st = _perturbed(SPHERE, 48, r0=0.8, amplitude=0.0)
    # markers are unit profile vectors; first component encodes the polar angle
    npt.assert_allclose(np.linalg.norm(st.markers, axis=1), 1.0, rtol=1e-14)
    npt.assert_allclose(np.arccos(st.markers[:, 0]), 0.8, rtol=1e-12)
    st0 = _perturbed(FLAT, 48, r0=1.5, amplitude=0.0)
    npt.assert_allclose(np.linalg.norm(st0.markers, axis=1), 1.5, rtol=1e-14)


def test_metric_compatibility_is_exact():
    """∇g = 0: the Christoffel symbols are built from the same discrete metric."""
    st = _perturbed(SPHERE, 64)
    nabla_g = geo.covariant_derivative(st, st.g, ("lo", "lo"))
    assert np.max(np.abs(nabla_g)) < 1e-12
    st0 = _perturbed(FLAT, 64)
    nabla_g0 = geo.covariant_derivative(st0, st0.g, ("lo", "lo"))
    assert np.max(np.abs(nabla_g0)) < 1e-12


def test_state_algebraic_relations():
    st = _perturbed(SPHERE, 64, amplitude=0.02, mode=4)
    eye = np.broadcast_to(np.eye(2), st.g.shape)
    npt.assert_allclose(np.einsum("nij,njk->nik", st.g_inv, st.g), eye, atol=1e-12)
    # b is the inverse of the Weingarten map paired against the metric:
    # b^{ik} h_{kj} = delta^i_j
    npt.assert_allclose(np.einsum("nik,nkj->nij", st.b, st.h), eye, atol=1e-11)
    npt.assert_allclose(st.h_sq, np.einsum("nik,nkl,nlj->nij", st.h, st.g_inv, st.h),
                        atol=1e-12)
    npt.assert_allclose(st.eta, st.alpha - st.gamma, atol=1e-13)
    npt.assert_allclose(st.beta, np.einsum("nij,nij->n", st.dF, st.alpha), rtol=1e-12)
    npt.assert_allclose(st.theta,
                        np.einsum("nij,ni,nj->n", st.b, st.grad_F, st.grad_F),
                        rtol=1e-12, atol=1e-20)
    # Weingarten eigenvalues of (g, h) are the stored principal curvatures
    w = np.einsum("nij,njk->nik", st.g_inv, st.h)
    npt.assert_allclose(np.sort(np.linalg.eigvals(w).real, axis=1),
                        np.sort(st.kappa, axis=1), rtol=1e-9)


@pytest.mark.parametrize("ambient", [SPHERE, FLAT])
def test_gauss_codazzi_residuals_converge(ambient):
    gauss, codazzi = zip(*(geo.gauss_codazzi_residual(
        _perturbed(ambient, n, amplitude=0.08, mode=2)) for n in (32, 64)))
    assert codazzi[1] < codazzi[0] / 8.0, f"Codazzi {codazzi} decays slower than cubically"
    assert gauss[1] < 1e-5 and codazzi[1] < 1e-5
    # Gauss on round data is exact (flat) or pure stencil error (sphere)
    g_round, c_round = geo.gauss_codazzi_residual(_perturbed(ambient, 64, amplitude=0.0))
    assert g_round < 1e-8 and c_round < 1e-8


def test_umbilic_compatibility_exact():
    st = geo.assemble(geo.GeodesicSphere(0.8), SPHERE, MEAN1)
    assert geo.gauss_codazzi_residual(st) == (0.0, 0.0)


def test_covariant_hessian_of_constant_vanishes():
    st = _perturbed(SPHERE, 48)
    phi = np.full(st.n_nodes, 3.7)
    assert np.max(np.abs(geo.covariant_hessian(st, phi))) < 1e-13
    assert np.max(np.abs(geo.grad_scalar(st, phi))) < 1e-13


def test_box_operator_linearity():
    st = _perturbed(SPHERE, 48, amplitude=0.02, mode=4)
    x, y = st.F, st.theta
    lin = geo.box_op(st, 2.0 * x - 3.0 * y)
    npt.assert_allclose(lin, 2.0 * geo.box_op(st, x) - 3.0 * geo.box_op(st, y),
                        rtol=1e-12, atol=1e-13)


def test_grad_scalar_is_profile_directed():
    """Axisymmetric fields vary only along the profile coordinate."""
    st = _perturbed(SPHERE, 96, amplitude=0.05, mode=2)
    grad = geo.grad_scalar(st, st.F)
    npt.assert_array_equal(grad[:, 0], geo.partial_u(st, st.F))
    npt.assert_array_equal(grad[:, 1], 0.0)


def test_convexity_lost_raises():
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.3, 4), 48)
    with pytest.raises(ConvexityLost):
        geo.assemble(mk, SPHERE, MEAN1)


@pytest.mark.parametrize("consume", [
    lambda mk: geo.assemble(mk, FLAT, MEAN1),
    lambda mk: flow.run(flow.FlowConfig(FLAT, MEAN1, mk, t_end=0.01)),
], ids=["assemble", "run"])
def test_degenerate_grid_raises(consume):
    u = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    warp = u + 0.95 * np.sin(u)  # parameter speed varies by ~40x around the curve
    mk = np.stack([np.cos(warp), np.sin(warp)], axis=1)
    with pytest.raises(DegenerateGrid, match="spacing ratio"):
        consume(mk)


def test_marker_shape_validation():
    bad = np.zeros((16, 3))
    with pytest.raises(ConfigError):
        geo.assemble(bad, FLAT, MEAN1)


def test_marker_dimension_picks_the_kind():
    """The same marker array is a profile for n = 2 and a curve for n = 1."""
    mk = geo.markers_from_radial(FLAT, 2.0, 32)
    assert geo.assemble(mk, FLAT, MEAN1).kind == "axisymmetric-profile"
    curve = geo.assemble(mk, geo.AmbientSpace(0, 1), MEAN1)
    assert curve.kind == "closed-curve"
    npt.assert_allclose(curve.kappa, 0.5, rtol=1e-6)
    with pytest.raises(ConfigError, match="grid-free"):
        geo.assemble(mk, geo.AmbientSpace(0, 3), MEAN1)


def test_extended_precision_propagates():
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.05, 2), 32)
    st = geo.assemble(mk.astype(np.longdouble), SPHERE, MEAN1)
    for fld in (st.g, st.h, st.kappa, st.F, st.grad_F, st.beta):
        assert np.asarray(fld).dtype == np.longdouble
    # and the default stays double
    st64 = geo.assemble(mk, SPHERE, MEAN1)
    assert np.asarray(st64.F).dtype == np.float64


def test_integer_markers_are_coerced():
    ang = (np.arange(32) + 0.5) * 2 * np.pi / 32
    mk = np.round(100 * np.stack([np.cos(ang), np.sin(ang)], axis=1)).astype(int)
    st = geo.assemble(mk, FLAT, MEAN1)
    assert st.F.dtype == np.float64
    npt.assert_allclose(st.kappa, 0.01, rtol=2e-1)  # rounding-noise circle of r=100


def test_mode_perturbation_is_relative():
    """cos_mode_radial builds r(u) = r0 (1 + a cos(mode u))."""
    fn = geo.cos_mode_radial(0.8, 0.05, 2)
    u = np.linspace(0, 2 * np.pi, 9)
    npt.assert_allclose(fn(u), 0.8 * (1.0 + 0.05 * np.cos(2 * u)), rtol=1e-15)


def test_odd_perturbation_mode_rejected():
    # the doubled profile covers the sphere twice; odd modes break the matching
    with pytest.raises(ConfigError):
        geo.cos_mode_radial(0.8, 0.05, 3)


# ---------------------------------------------------------------------------
# periodic stencils: bit-identical to the np.roll reference
# ---------------------------------------------------------------------------

def _roll_d1(arr, spacing):
    p1, p2, p3 = (np.roll(arr, -k, 0) for k in (1, 2, 3))
    m1, m2, m3 = (np.roll(arr, k, 0) for k in (1, 2, 3))
    return (p3 - m3 + 9.0 * (m2 - p2) + 45.0 * (p1 - m1)) / (60.0 * spacing)


def _roll_d2(arr, spacing):
    p1, p2, p3 = (np.roll(arr, -k, 0) for k in (1, 2, 3))
    m1, m2, m3 = (np.roll(arr, k, 0) for k in (1, 2, 3))
    return (2.0 * (p3 + m3) - 27.0 * (p2 + m2) + 270.0 * (p1 + m1)
            - 490.0 * arr) / (180.0 * spacing ** 2)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("tail", [(), (3,), (2, 2), (2, 2, 2)])
@pytest.mark.parametrize("n_nodes", [8, 64])
def test_stencils_match_roll_reference_exactly(dtype, tail, n_nodes):
    rng = np.random.default_rng(n_nodes + len(tail))
    # dividing in the target dtype fills the extended mantissa of longdouble
    arr = rng.standard_normal((n_nodes,) + tail).astype(dtype) / dtype(3)
    du = 2.0 * np.pi / n_nodes
    for stencil, reference in ((geo.periodic_d1, _roll_d1), (geo.periodic_d2, _roll_d2)):
        got, want = stencil(arr, du), reference(arr, du)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_spherical_normal_matches_np_cross_exactly(dtype):
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.05, 2), 64).astype(dtype)
    cp, _, E, normal, *_ = geo._profile_geometry(SPHERE, mk)
    want = np.cross(cp, mk) / np.sqrt(E)[:, None]
    assert normal.dtype == want.dtype == dtype
    assert np.array_equal(normal, want)
