"""Unit checks for the symmetric-function layer: values, derivatives, F^{ij}.

Analytic gradients/Hessians are checked against centered finite differences
(independent oracle), algebraic structure (homogeneity, Euler) against direct
evaluation.  F^{ij} and F^{ij,kl} on a (g, h) pair are composed here from the
Weingarten eigensystem and the spectral builders the package uses.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from harnacklab import symfunc as sf
from harnacklab import verify as V
from harnacklab.errors import ConfigError, ConvexityLost
from oracles import d2F_spectrum_by_where


def _fd_grad(f, kappa, step=1e-6):
    kappa = np.asarray(kappa, dtype=float)
    out = np.empty_like(kappa)
    for i in range(kappa.size):
        up, dn = kappa.copy(), kappa.copy()
        up[i] += step
        dn[i] -= step
        out[i] = (sf.eval_f(f, up) - sf.eval_f(f, dn)) / (2 * step)
    return out


def _fd_hess(f, kappa, step=1e-6):
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.size
    out = np.empty((n, n))
    for j in range(n):
        up, dn = kappa.copy(), kappa.copy()
        up[j] += step
        dn[j] -= step
        out[:, j] = (sf.grad_f(f, up) - sf.grad_f(f, dn)) / (2 * step)
    return out


ALL_BUILTINS = ("mean", "norm", "harmonic-mean")


def test_builtin_values():
    assert sf.eval_f(sf.mean(), np.array([1.0, 2.0, 3.0])) == 6.0
    assert sf.eval_f(sf.norm(), np.array([3.0, 4.0])) == 5.0
    npt.assert_allclose(sf.eval_f(sf.harmonic_mean(), np.ones(4)), 4.0, rtol=1e-14)
    npt.assert_allclose(sf.eval_f(sf.power_mean(3.0), np.array([1.0, 2.0])),
                        9.0 ** (1.0 / 3.0), rtol=1e-14)


def test_eval_broadcasts_over_leading_axes():
    rng = np.random.default_rng(3)
    kappa = rng.uniform(0.2, 5.0, size=(7, 4, 3))
    f = sf.norm()
    vals = sf.eval_f(f, kappa)
    assert vals.shape == (7, 4)
    npt.assert_allclose(vals, np.sqrt((kappa ** 2).sum(axis=-1)), rtol=1e-14)
    assert sf.grad_f(f, kappa).shape == (7, 4, 3)
    assert f.hessian(kappa).shape == (7, 4, 3, 3)


@pytest.mark.parametrize("name", ALL_BUILTINS)
@pytest.mark.parametrize("kappa", [(1.0, 2.0), (0.3, 0.3, 4.0), (2.0, 2.0, 2.0, 5.0)])
def test_gradient_matches_finite_differences(name, kappa):
    f = sf.builtin(name)
    kappa = np.array(kappa)
    npt.assert_allclose(sf.grad_f(f, kappa), _fd_grad(f, kappa), rtol=1e-5, atol=1e-10)


@pytest.mark.parametrize("name", ALL_BUILTINS)
@pytest.mark.parametrize("kappa", [(1.0, 2.0), (0.5, 1.5, 3.0)])
def test_hessian_matches_finite_differences(name, kappa):
    f = sf.builtin(name)
    kappa = np.array(kappa)
    hess = f.hessian(kappa)
    npt.assert_allclose(hess, hess.swapaxes(-1, -2), rtol=0, atol=1e-13)
    npt.assert_allclose(hess, _fd_hess(f, kappa), rtol=1e-5, atol=1e-8)


def test_power_mean_derivatives():
    f = sf.power_mean(3.0)
    kappa = np.array([1.0, 2.0])
    npt.assert_allclose(sf.grad_f(f, kappa), _fd_grad(f, kappa, step=1e-6), rtol=1e-6)
    npt.assert_allclose(f.hessian(kappa), _fd_hess(f, kappa), rtol=1e-5)


@pytest.mark.parametrize("r", ["0", "nan", "inf", "-inf"])
def test_power_mean_refuses_a_zero_or_non_finite_exponent(r):
    with pytest.raises(ConfigError, match=f"exponent r must be finite and nonzero, got r = {r}$"):
        sf.builtin(f"power-mean({r})")


@pytest.mark.parametrize("name", ALL_BUILTINS + tuple(
    f"power-mean({r:g})" for r in (-4.0, -2.0, -1.5, -1.0, 0.5, 1.0, 3.0)))
def test_inverse_concave_flag_matches_the_concavity_of_the_dual(name):
    """f is inverse-concave iff its dual f*(κ) = 1/f(1/κ) is concave on Γ₊: second
    differences of f* along random directions, against the flag.  The norm and the
    power means with -1 <= r != 1 used to be flagged not inverse-concave."""
    f = sf.builtin(name)
    rng = np.random.default_rng(4)
    kappa = np.exp(rng.uniform(-1.0, 1.0, size=(500, 3)))
    step = 1e-3 * rng.standard_normal((500, 3))

    def dual(k):
        return 1.0 / sf.eval_f(f, 1.0 / k)
    curvature = (dual(kappa + step) - 2.0 * dual(kappa) + dual(kappa - step)) / dual(kappa)
    assert f.inverse_concave is bool((curvature < 1e-9).all())


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("r, make", [(1.0, sf.mean), (2.0, sf.norm)], ids=["mean", "norm"])
def test_closed_form_mean_and_norm_keep_the_general_power_mean_bits(r, make, n, dtype):
    """The column-sum value and gradient of f = mean and norm against the
    general-r formulas, bit for bit, on (N, n) stacks and on a strided
    (…, n) batch like the scans' samples."""
    rng = np.random.default_rng(n)
    # dividing in the target dtype fills the extended mantissa of longdouble
    stacks = (rng.uniform(0.01, 50.0, (64, n)).astype(dtype) / dtype(3),
              (rng.uniform(0.01, 50.0, (5, 40, n)).astype(dtype) / dtype(3)).swapaxes(0, 1))
    f = make()
    for kappa in stacks:
        s = np.sum(kappa ** r, axis=-1)
        for got, want in ((f.value(kappa), s ** (1.0 / r)),
                          (f.gradient(kappa), s[..., None] ** (1.0 / r - 1.0)
                           * kappa ** (r - 1.0))):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_the_harmonic_mean_is_n_squared_times_the_power_mean_of_exponent_minus_one(n, dtype):
    """Value, gradient and Hessian of harmonic_mean() against n² times those of
    power_mean(-1), bit for bit, in the κ's dtype."""
    kappa = np.random.default_rng(n).uniform(0.01, 50.0, (64, n)).astype(dtype) / dtype(3)
    hm, pm = sf.harmonic_mean(), sf.power_mean(-1.0)
    for part in ("value", "gradient", "hessian"):
        got, want = getattr(hm, part)(kappa), n ** 2 * getattr(pm, part)(kappa)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want), part


def test_mean_hessian_vanishes():
    npt.assert_array_equal(sf.mean().hessian(np.array([1.0, 2.0, 3.0])),
                           np.zeros((3, 3)))


@given(st.integers(2, 5), st.floats(0.1, 10.0), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_homogeneity_euler_monotonicity(n, lam, seed):
    kappa = np.random.default_rng(seed).uniform(0.05, 20.0, size=n)
    for name in ALL_BUILTINS:
        f = sf.builtin(name)
        val = sf.eval_f(f, kappa)
        grad = sf.grad_f(f, kappa)
        assert val > 0
        assert np.all(grad > 0), f"{name} must be strictly monotone on the cone"
        # degree-one homogeneity and its Euler consequence
        npt.assert_allclose(sf.eval_f(f, lam * kappa), lam * val, rtol=1e-12)
        npt.assert_allclose(np.dot(kappa, grad), val, rtol=1e-12)


def test_harmonic_mean_below_mean():
    rng = np.random.default_rng(11)
    kappa = rng.uniform(0.2, 8.0, size=(200, 3))
    hm = sf.eval_f(sf.harmonic_mean(), kappa)
    am = sf.eval_f(sf.mean(), kappa)
    assert np.all(hm <= am + 1e-12)


def test_cone_violation_raises():
    with pytest.raises(ConvexityLost):
        sf.eval_f(sf.mean(), np.array([1.0, -1.0]))
    with pytest.raises(ConvexityLost):
        sf.eval_f(sf.norm(), np.array([0.0, 2.0]))
    with pytest.raises(ConvexityLost, match="non-finite entries"):
        sf.eval_f(sf.mean(), np.array([1.0, np.inf]))


def test_unknown_builtin_raises():
    with pytest.raises(ConfigError):
        sf.builtin("gauss")


# ---------------------------------------------------------------------------
# speed functions F = f^p (p > 0) and F = -f^p (p < 0, expanding)
# ---------------------------------------------------------------------------

def test_speed_function_basics():
    sp = sf.SpeedFunction(sf.mean(), 0.5)
    kappa = np.array([1.0, 3.0])
    npt.assert_allclose(sp.value(kappa), 2.0, rtol=1e-14)
    assert sp.contracting
    npt.assert_allclose(sp.delta_default, 1.0 / 3.0, rtol=1e-15)

    exp = sf.SpeedFunction(sf.mean(), -0.5)
    assert not exp.contracting
    assert exp.value(np.array([1.0, 1.0])) < 0
    npt.assert_allclose(exp.delta_default, -1.0, rtol=1e-15)

    with pytest.raises(ConfigError):
        sf.SpeedFunction(sf.mean(), 0.0)


@pytest.mark.parametrize("exponent", [0.5, 1.0, -0.5])
def test_scalar_derivs_match_finite_differences(exponent):
    """Each entry of (F, F', F'', F''') differentiates the one before it."""
    sp = sf.SpeedFunction(sf.mean(), exponent)
    for fval in (0.5, 2.0, 7.0):
        step = 1e-6 * fval
        derivs = sp.scalar_derivs(fval)
        up, dn = sp.scalar_derivs(fval + step), sp.scalar_derivs(fval - step)
        expected_value = fval ** exponent if exponent > 0 else -(fval ** exponent)
        npt.assert_allclose(derivs[0], expected_value, rtol=1e-13)
        assert derivs[1] > 0, "F must be strictly increasing in f for both signs"
        for k in range(3):
            fd = (up[k] - dn[k]) / (2 * step)
            npt.assert_allclose(derivs[k + 1], fd, rtol=1e-6)


# ---------------------------------------------------------------------------
# matrix routes: eigensystem, F^{ij}, second derivative forms
# ---------------------------------------------------------------------------

def _random_pair(rng, n, batch=()):
    """Strictly convex (g, h): SPD metric and SPD second fundamental form."""
    a = rng.normal(size=batch + (n, n))
    g = np.einsum("...ik,...jk->...ij", a, a) + n * np.eye(n)
    b = rng.normal(size=batch + (n, n))
    h = np.einsum("...ik,...jk->...ij", b, b) + 0.5 * np.eye(n)
    return g, h


def _dF(speed, g, h):
    """F^{ij} on a (g, h) pair: Φ' at the Weingarten spectrum, pushed through T."""
    kappa, T = sf.weingarten_eigensystem(g, h)
    return sf.dF_from_eig(speed.dvalue(kappa), T)


def _d2F_bilinear(speed, g, h, A, C):
    """F^{ij,kl} A_{ij} C_{kl} on a (g, h) pair, contracted from d2F_from_eig."""
    kappa, T = sf.weingarten_eigensystem(g, h)
    return np.einsum("...ijkl,...ij,...kl->...", sf.d2F_from_eig(speed, kappa, T), A, C)


def _d2F_quadratic(speed, g, h, eta):
    return _d2F_bilinear(speed, g, h, eta, eta)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_weingarten_eigensystem_reconstructs(n):
    """General-position pairs with prescribed κ, log-uniform over the scan range."""
    rng = np.random.default_rng(5 + n)
    lo, hi = np.log(V.KAPPA_RANGE)
    kappa_in = np.exp(rng.uniform(lo, hi, size=(500, n)))
    g, h = V.metric_pair(kappa_in, rng)
    kappa, T = sf.weingarten_eigensystem(g, h)
    scale = kappa_in.max(axis=1)[:, None]
    # columns are g-orthonormal and diagonalize h to the prescribed spectrum
    assert np.all(np.diff(kappa, axis=1) >= 0.0)
    npt.assert_allclose(kappa / scale, np.sort(kappa_in, axis=1) / scale,
                        rtol=0, atol=1e-13)
    npt.assert_allclose(np.einsum("nia,nij,njb->nab", T, g, T),
                        np.broadcast_to(np.eye(n), (500, n, n)), rtol=0, atol=1e-13)
    npt.assert_allclose(np.einsum("nia,nij,njb->nab", T, h, T) / scale[:, :, None],
                        sf._diag_embed(kappa / scale), rtol=0, atol=1e-13)


def test_weingarten_eigensystem_refuses_an_indefinite_metric():
    with pytest.raises(ConfigError, match="metric g is not positive definite"):
        sf.weingarten_eigensystem(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))


@pytest.mark.parametrize("which", ["g", "h"])
def test_weingarten_eigensystem_refuses_non_finite_entries(which):
    """A NaN metric used to surface as a loss of convexity of the curvatures."""
    pair = {"g": np.eye(2), "h": np.eye(2)}
    pair[which] = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigError, match="non-finite"):
        sf.weingarten_eigensystem(pair["g"], pair["h"])


@pytest.mark.parametrize("which", ["g", "h"])
def test_weingarten_eigensystem_refuses_an_asymmetric_pair(which):
    """cholesky reads only the lower triangle, so [[1, 0.5], [0, 1]] used to pass
    as the identity; an asymmetry at 1e-11 of the largest entry is refused too,
    one at 1e-13 is rounding and passes."""
    rng = np.random.default_rng(3)
    g, h = _random_pair(rng, 3, batch=(4,))
    pair = {"g": g, "h": h}
    for tilt, refused in ((0.5, True), (1e-11, True), (1e-13, False)):
        bad = dict(pair)
        bad[which] = pair[which].copy()
        bad[which][2, 0, 1] += tilt * np.abs(pair[which][2]).max()
        if refused:
            with pytest.raises(ConfigError, match="not symmetric"):
                sf.weingarten_eigensystem(bad["g"], bad["h"])
        else:
            sf.weingarten_eigensystem(bad["g"], bad["h"])
    with pytest.raises(ConfigError, match="metric g is not symmetric"):
        sf.weingarten_eigensystem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


def test_to_eigenframe_matches_the_einsum_contraction():
    rng = np.random.default_rng(29)
    for n in (2, 3, 5):
        T = rng.normal(size=(200, n, n))
        X = rng.normal(size=(200, n, n))
        X = X + X.swapaxes(1, 2)
        oracle = np.einsum("...ia,...ij,...jb->...ab", T, X, T)
        npt.assert_allclose(sf._to_eigenframe(T, X), oracle, rtol=1e-14,
                            atol=1e-14 * np.abs(oracle).max())


def test_d2F_quadratic_eigenframe_matches_the_einsum_form():
    """Coincident eigenvalues in the batch exercise the divided-difference limit."""
    rng = np.random.default_rng(31)
    kappa = np.exp(rng.uniform(-2.0, 2.0, size=(300, 3)))
    kappa[:100, 1] = kappa[:100, 0]
    kappa[100:150] = kappa[100:150, :1]
    eta_hat = rng.normal(size=(300, 3, 3))
    eta_hat = eta_hat + eta_hat.swapaxes(1, 2)
    spectrum = sf.d2F_spectrum(sf.SpeedFunction(sf.norm(), 0.5), kappa)
    _, hess, dd = spectrum
    assert np.all(np.isfinite(dd)) and np.any(dd[:150, 0, 1] != 0.0)
    ed = np.einsum("...aa->...a", eta_hat)
    oracle = np.einsum("...ab,...a,...b->...", hess, ed, ed) \
        + np.einsum("...ab,...ab->...", dd, eta_hat ** 2)
    npt.assert_allclose(sf.d2F_quadratic_eigenframe(spectrum, eta_hat, eta_hat ** 2), oracle,
                        rtol=1e-13, atol=1e-13 * np.abs(oracle).max())


SPECTRUM_SPEEDS = [(sf.mean(), 1.0), (sf.mean(), -0.5), (sf.norm(), 0.5),
                   (sf.power_mean(3.0), 0.3), (sf.power_mean(-2.0), 1.5),
                   (sf.harmonic_mean(), 1.0)]


@pytest.mark.parametrize("dtype", [np.longdouble, np.float64])
@pytest.mark.parametrize("f, exponent", SPECTRUM_SPEEDS,
                         ids=[f"{f.name}^{a:g}" for f, a in SPECTRUM_SPEEDS])
def test_d2F_spectrum_keeps_the_bits_of_the_where_form(f, exponent, dtype):
    """Exactly and nearly coincident pairs take the limit, the rest divide."""
    rng = np.random.default_rng(37)
    kappa = np.exp(rng.uniform(-4.0, 4.0, size=(400, 4))).astype(dtype)
    kappa[:100, 1] = kappa[:100, 0]
    kappa[100:200, 3] = kappa[100:200, 2] * (1 + dtype(1e-10))
    kappa[200:250] = kappa[200:250, :1]
    speed = sf.SpeedFunction(f, exponent)
    for got, want in zip(sf.d2F_spectrum(speed, kappa), d2F_spectrum_by_where(speed, kappa)):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_dF_matrix_power_composition():
    """F = f^p has F^{ij} = p f^(p-1) f^{ij} (chain rule through the spectrum)."""
    rng = np.random.default_rng(9)
    g, h = _random_pair(rng, 3)
    base = sf.SpeedFunction(sf.norm(), 1.0)
    powered = sf.SpeedFunction(sf.norm(), 0.5)
    kappa, _ = sf.weingarten_eigensystem(g, h)
    fval = sf.eval_f(sf.norm(), kappa)
    npt.assert_allclose(_dF(powered, g, h),
                        0.5 * fval ** (-0.5) * _dF(base, g, h), rtol=1e-12)


def test_trace_dF_from_eigenvalues():
    rng = np.random.default_rng(13)
    g, h = _random_pair(rng, 4)
    sp = sf.SpeedFunction(sf.mean(), 0.5)
    kappa, _ = sf.weingarten_eigensystem(g, h)
    H = kappa.sum()
    # tr(F') = g_{ij} F^{ij} = sum of spectral derivatives for f = mean
    npt.assert_allclose(np.sum(sp.dvalue(kappa), axis=-1), 4 * 0.5 * H ** (-0.5),
                        rtol=1e-12)
    npt.assert_allclose(np.einsum("ij,ij->", g, _dF(sp, g, h)), 4 * 0.5 * H ** (-0.5),
                        rtol=1e-12)


def test_d2F_quadratic_frozen_example():
    # F = H^(1/2) at the unit-metric umbilic point h = 2g in two dimensions,
    # direction eta = identity: value is -1/8 (pure p(p-1) f^(p-2) term).
    sp = sf.SpeedFunction(sf.mean(), 0.5)
    val = _d2F_quadratic(sp, np.eye(2), 2.0 * np.eye(2), np.eye(2))
    npt.assert_allclose(val, -0.125, rtol=1e-13)


def test_d2F_quadratic_frame_invariant():
    """F^{ij,kl} η η is a scalar: any simultaneous change of basis leaves it fixed."""
    rng = np.random.default_rng(21)
    g, h = _random_pair(rng, 3, batch=(25,))
    eta = rng.normal(size=(25, 3, 3))
    eta = 0.5 * (eta + eta.swapaxes(1, 2))
    sp = sf.SpeedFunction(sf.norm(), 0.5)
    P = rng.normal(size=(25, 3, 3)) + 2.0 * np.eye(3)
    push = lambda M: np.einsum("nai,nab,nbj->nij", P, M, P)
    npt.assert_allclose(_d2F_quadratic(sp, push(g), push(h), push(eta)),
                        _d2F_quadratic(sp, g, h, eta), rtol=1e-8, atol=1e-12)


def test_d2F_quadratic_matches_finite_difference_of_dF():
    """d²F[η,η] is the second derivative of t -> F(g, h + t η)."""
    rng = np.random.default_rng(33)
    g, h = _random_pair(rng, 3)
    eta = rng.normal(size=(3, 3))
    eta = 0.5 * (eta + eta.T)
    sp = sf.SpeedFunction(sf.norm(), 0.5)

    def F_of(t):
        kap, _ = sf.weingarten_eigensystem(g, h + t * eta)
        return sp.value(kap)

    step = 1e-4
    fd = (F_of(step) - 2.0 * F_of(0.0) + F_of(-step)) / step ** 2
    npt.assert_allclose(_d2F_quadratic(sp, g, h, eta), fd, rtol=1e-5)


def test_d2F_bilinear_polarization():
    rng = np.random.default_rng(8)
    g, h = _random_pair(rng, 3)
    A = rng.normal(size=(3, 3)); A = 0.5 * (A + A.T)
    C = rng.normal(size=(3, 3)); C = 0.5 * (C + C.T)
    sp = sf.SpeedFunction(sf.mean(), 0.75)
    bAC = _d2F_bilinear(sp, g, h, A, C)
    npt.assert_allclose(bAC, _d2F_bilinear(sp, g, h, C, A), rtol=1e-12)
    quad = lambda M: _d2F_quadratic(sp, g, h, M)
    npt.assert_allclose(bAC, 0.25 * (quad(A + C) - quad(A - C)), rtol=1e-9, atol=1e-12)
    npt.assert_allclose(_d2F_bilinear(sp, g, h, 2.0 * A + C, C),
                        2.0 * bAC + quad(C), rtol=1e-9, atol=1e-12)


def test_repeated_eigenvalues_continuous():
    """The divided-difference Hessian route must not jump across coincidences."""
    sp = sf.SpeedFunction(sf.norm(), 0.5)
    eye = np.eye(2)
    eta = np.array([[0.3, 1.1], [1.1, -0.4]])
    exact = _d2F_quadratic(sp, eye, np.diag([2.0, 2.0]), eta)
    for gap in (1e-12, 1e-10, 1e-9):
        near = _d2F_quadratic(sp, eye, np.diag([2.0, 2.0 + gap]), eta)
        npt.assert_allclose(near, exact, rtol=1e-6)
