"""Symmetric functions of principal curvatures and their spectral calculus.

A curvature function f is a smooth symmetric function on the positive cone
Γ₊ = {κ ∈ ℝⁿ : κᵢ > 0}, strictly monotone (∂f/∂κᵢ > 0) and homogeneous of
degree one.  Every built-in f is a power mean (Σ κᵢ^r)^(1/r), up to a
constant factor: the mean (r = 1), the norm (r = 2), power_mean(r) and the
harmonic mean (n² times r = −1), all from one value, gradient and Hessian.
The flow speed is F = f^α with α > 0 (contracting) or F = −f^(−β) with
0 < β < 1 (expanding), so that Φ' > 0 in both modes.

Given a metric g (SPD) and a second fundamental form h (symmetric), the
Weingarten map g⁻¹h is self-adjoint with respect to g; its eigenvalues are
the principal curvatures κ and there is a g-orthonormal eigenbasis T with

    Tᵀ g T = 1,      T⁻¹ (g⁻¹ h) T = diag(κ).

In that basis the first derivative of the speed acts diagonally,

    F^{ij} = Σ_a Φ'_a(κ) T^i_a T^j_a,        tr(Ḟ) = g_{ij} F^{ij} = Σ_a Φ'_a,

and the second derivative, as a quadratic form on symmetric matrices η
(with η̂ = Tᵀ η T), is the classical two-part spectral formula

    F^{ij,kl} η_{ij} η_{kl} = Σ_{a,b} Φ''_{ab} η̂_{aa} η̂_{bb}
                              + Σ_{a≠b} (Φ'_a − Φ'_b)/(κ_a − κ_b) · η̂_{ab}²,

where the divided difference is replaced by its limit when κ_a → κ_b.
Pushed through T, the same two parts give the tensor F^{ij,kl} itself
(d2F_from_eig), which a surface state builds once and contracts with
symmetric pairs A, C into F^{ij,kl} A_{ij} C_{kl}.

All operations are vectorized over leading batch axes: g and h may be
(..., n, n) stacks and κ a (..., n) stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ConvexityLost

# Two eigenvalues closer than this (relative to max |κ|) are treated as
# coincident and the divided difference is replaced by its analytic limit.
EIG_COINCIDENCE_RTOL = 1e-8

# g and h must be symmetric to this fraction of their largest entry.
SYMMETRY_RTOL = 1e-12


# ---------------------------------------------------------------------------
# curvature functions f(κ)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureFunction:
    """A symmetric, 1-homogeneous curvature function on Γ₊; every built-in
    one is a power mean (_power_mean_core), up to a constant factor.

    name identifies it in configs and reports.  value, gradient and hessian
    evaluate it at κ of shape (..., n), returning (...,), (..., n) and
    (..., n, n); hessian returns a new array, which SpeedFunction.d2value
    scales in place.  The Urbas inequality scan needs inverse_concave.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    inverse_concave: bool = False


def _power_mean_core(r: float):
    """f(κ) = (Σ κᵢ^r)^(1/r) with closed-form first and second derivatives.

    The mean (r = 1) and the norm (r = 2) evaluate on every RK4 stage, so
    their value is a sum over the columns of κ, or the square root of a sum
    over the columns of κ·κ, and the mean's gradient is 1: the same bits as
    the general r path at a fraction of its per-call cost.  The norm's
    gradient keeps s^(−1/2), since 1/√s is not the same bits.
    """
    if r == 1.0:
        value = power_sum = _column_sum

        def gradient(kappa):
            return np.ones_like(kappa)
    elif r == 2.0:
        def power_sum(kappa):
            return _column_sum(kappa * kappa)

        def value(kappa):
            return np.sqrt(power_sum(kappa))

        def gradient(kappa):
            return power_sum(kappa)[..., None] ** -0.5 * kappa
    else:
        def power_sum(kappa):
            return np.sum(kappa ** r, axis=-1)

        def value(kappa):
            return power_sum(kappa) ** (1.0 / r)

        def gradient(kappa):
            return power_sum(kappa)[..., None] ** (1.0 / r - 1.0) * kappa ** (r - 1.0)

    def hessian(kappa):
        s = power_sum(kappa)[..., None, None]
        kr1 = kappa ** (r - 1.0)
        outer = kr1[..., :, None] * kr1[..., None, :]
        outer *= s ** (1.0 / r - 2.0)
        hess = _diag_embed(kappa ** (r - 2.0))
        hess *= s ** (1.0 / r - 1.0)
        hess -= outer
        hess *= r - 1.0
        return hess

    return value, gradient, hessian


def _column_sum(x):
    """np.sum(x, axis=-1) by explicit column adds: the same bits, less per-call overhead."""
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        out += x[..., j]
    return out


def _diag_embed(v):
    """Embed (..., n) vectors as (..., n, n) diagonal matrices."""
    out = np.zeros(v.shape + (v.shape[-1],), dtype=v.dtype)
    idx = np.arange(v.shape[-1])
    out[..., idx, idx] = v
    return out


def mean() -> CurvatureFunction:
    """Mean curvature f(κ) = Σ κᵢ (convex and inverse-concave)."""
    v, g, h = _power_mean_core(1.0)
    return CurvatureFunction("mean", v, g, h, inverse_concave=True)


def norm() -> CurvatureFunction:
    """Euclidean norm f(κ) = |κ|: power_mean(2), convex and inverse-concave."""
    v, g, h = _power_mean_core(2.0)
    return CurvatureFunction("norm", v, g, h, inverse_concave=True)


def power_mean(r: float) -> CurvatureFunction:
    """f(κ) = (Σ κᵢ^r)^(1/r); convex for r ≥ 1, and inverse-concave for r ≥ −1:
    its dual 1/f(κ⁻¹) is the power mean of exponent −r, concave iff −r ≤ 1."""
    if not np.isfinite(r) or r == 0:
        raise ConfigError(f"power-mean exponent r must be finite and nonzero, got r = {r:g}")
    v, g, h = _power_mean_core(float(r))
    return CurvatureFunction(f"power-mean({r:g})", v, g, h, inverse_concave=(r >= -1.0))


def harmonic_mean() -> CurvatureFunction:
    """f(κ) = n² / Σ κᵢ⁻¹ = n² · power_mean(−1), normalized so f(1, …, 1) = n.

    Its value, gradient and Hessian are power_mean(−1)'s times n², each a new
    array.  Concave and inverse-concave: its dual 1/f(κ⁻¹) = Σ κᵢ / n² is linear.
    """
    def times_n_squared(closure):
        return lambda kappa: kappa.shape[-1] ** 2 * closure(kappa)

    v, g, h = map(times_n_squared, _power_mean_core(-1.0))
    return CurvatureFunction("harmonic-mean", v, g, h, inverse_concave=True)


_BUILTINS = {"mean": mean, "norm": norm, "harmonic-mean": harmonic_mean}


def builtin(name: str) -> CurvatureFunction:
    """Look a curvature function up by config name.

    Accepts "mean", "norm", "harmonic-mean" and "power-mean(r)".
    """
    key = name.strip().lower()
    if key in _BUILTINS:
        return _BUILTINS[key]()
    if key.startswith("power-mean(") and key.endswith(")"):
        try:
            r = float(key[len("power-mean("):-1])
        except ValueError:
            raise ConfigError(f"cannot parse power-mean exponent in {name!r}") from None
        return power_mean(r)
    raise ConfigError(f"unknown curvature function {name!r}")


def as_float(arr):
    """Coerce to a floating array without narrowing an extended-precision one."""
    arr = np.asarray(arr)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(float)
    return arr


def _check_cone(kappa):
    kappa = as_float(kappa)
    if not np.isfinite(kappa).all():
        raise ConvexityLost("principal curvatures contain non-finite entries")
    if (kappa <= 0.0).any():
        raise ConvexityLost(
            f"principal curvatures leave the positive cone (min = {kappa.min():.6g})")
    return kappa


def eval_f(f: CurvatureFunction, kappa) -> np.ndarray:
    """Evaluate f on κ ∈ Γ₊; raises ConvexityLost outside the cone."""
    return f.value(_check_cone(kappa))


def grad_f(f: CurvatureFunction, kappa) -> np.ndarray:
    """∂f/∂κᵢ, shape (..., n)."""
    return f.gradient(_check_cone(kappa))


# ---------------------------------------------------------------------------
# flow speeds F = ±f^α
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpeedFunction:
    """Flow speed F built from a curvature function by a power law.

    exponent > 0 gives the contracting speed F = f^exponent; a negative
    exponent −β with 0 < β < 1 gives the expanding speed F = −f^(−β).
    Either way ∂F/∂κᵢ > 0 on Γ₊.
    """

    f: CurvatureFunction
    exponent: float

    def __post_init__(self):
        a = self.exponent
        if not np.isfinite(a) or a == 0:
            raise ConfigError("speed exponent must be a nonzero real number")
        if a < 0 and not -1.0 < a:
            raise ConfigError(
                f"expanding speeds need exponent −β with 0 < β < 1, got {a:g}")

    @property
    def contracting(self) -> bool:
        return self.exponent > 0

    @property
    def sign(self) -> float:
        return 1.0 if self.exponent > 0 else -1.0

    @property
    def delta_default(self) -> float:
        """Harnack exponent δ = α/(α+1); equals β/(β−1) < 0 when expanding."""
        return self.exponent / (self.exponent + 1.0)

    def value(self, kappa):
        return self._from_f(eval_f(self.f, kappa))

    def dvalue(self, kappa):
        """Φ'_i = ∂F/∂κᵢ = |α| f^(α−1) ∂f/∂κᵢ (positive in both modes)."""
        kappa = _check_cone(kappa)
        return self._dvalue_from_f(kappa, self.f.value(kappa))

    # F and Φ' from fv = f(κ), for a caller that has already checked κ's cone
    def _from_f(self, fv):
        return self.sign * fv ** self.exponent

    def _dvalue_from_f(self, kappa, fv):
        return abs(self.exponent) * fv[..., None] ** (self.exponent - 1.0) * self.f.gradient(kappa)

    def d2value(self, kappa):
        """Φ''_{ij} = |α| f^(α−1) f_{ij} + |α|(α−1) f^(α−2) f_i f_j."""
        kappa = _check_cone(kappa)
        a = self.exponent
        fv = self.f.value(kappa)[..., None, None]
        gr = self.f.gradient(kappa)
        hess = self.f.hessian(kappa)
        hess *= abs(a) * fv ** (a - 1.0)
        outer = gr[..., :, None] * gr[..., None, :]
        outer *= abs(a) * (a - 1.0) * fv ** (a - 2.0)
        hess += outer
        return hess

    def scalar_derivs(self, fval):
        """(F, F', F'', F''') as functions of the scalar f-value.

        Used by the mean-curvature specializations where F = F(H).
        """
        a, s = self.exponent, self.sign
        fval = as_float(fval)
        return (s * fval ** a,
                abs(a) * fval ** (a - 1.0),
                abs(a) * (a - 1.0) * fval ** (a - 2.0),
                abs(a) * (a - 1.0) * (a - 2.0) * fval ** (a - 3.0))


# ---------------------------------------------------------------------------
# spectral calculus of F on (g, h) pairs
# ---------------------------------------------------------------------------

def weingarten_eigensystem(g, h):
    """Principal curvatures and a g-orthonormal eigenbasis of g⁻¹h.

    Returns (κ, T) with κ ascending, Tᵀ g T = 1 and (g⁻¹h) T = T diag(κ).
    With the Cholesky factor g = LLᵀ and its inverse Li = L⁻¹, formed once,
    the symmetric matrix A = Li h Liᵀ (symmetrized against rounding) has the
    eigendecomposition A = U diag(κ) Uᵀ, and T = Liᵀ U.  A g or h with a
    non-finite entry or not symmetric to SYMMETRY_RTOL of its largest entry,
    and a metric that is not positive definite, raise ConfigError.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    for name, X in (("metric g", g), ("second form h", h)):
        if not np.all(np.isfinite(X)):
            raise ConfigError(f"the {name} has non-finite entries")
        work = X - np.swapaxes(X, -1, -2)
        asym = np.abs(work, out=work).max(axis=(-2, -1))
        if np.any(asym > SYMMETRY_RTOL * np.abs(X, out=work).max(axis=(-2, -1))):
            raise ConfigError(f"the {name} is not symmetric")
    del work
    try:
        Li = np.linalg.inv(np.linalg.cholesky(g))
    except np.linalg.LinAlgError:
        raise ConfigError("the metric g is not positive definite") from None
    LiT = np.swapaxes(Li, -1, -2)
    A = Li @ h @ LiT
    A += np.swapaxes(A, -1, -2)
    A *= 0.5
    kappa, U = np.linalg.eigh(A)
    del A
    return kappa, LiT @ U


def dF_from_eig(phi, T):
    """F^{ij} = Σ_a Φ'_a T^i_a T^j_a (contravariant, SPD) from Φ' and T."""
    return np.einsum("...ia,...a,...ja->...ij", T, phi, T)


def d2F_spectrum(speed, kappa):
    """(Φ'_a, Φ''_ab, D_ab): Φ' and the two parts of F^{ij,kl} in the eigenframe.

    D_ab = (Φ'_a − Φ'_b)/(κ_a − κ_b) off the diagonal, with the analytic
    limit ½(Φ''_aa + Φ''_bb) − Φ''_ab where κ_a and κ_b coincide, and zero
    on the diagonal, whose η̂_aa entries the Φ'' part carries.  D is one
    array, divided in place by κ_a − κ_b, whose coincident entries are then
    set from the limit; the differences are freed before that.
    """
    phi = speed.dvalue(kappa)
    hess = speed.d2value(kappa)
    dk = kappa[..., :, None] - kappa[..., None, :]
    scale = np.max(np.abs(kappa), axis=-1)[..., None, None]
    near = np.abs(dk) <= EIG_COINCIDENCE_RTOL * scale
    idx = np.arange(kappa.shape[-1])
    near[..., idx, idx] = False
    dd = phi[..., :, None] - phi[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        dd /= dk
    del dk
    at = near.nonzero()
    hd = np.diagonal(hess, axis1=-2, axis2=-1)
    dd[at] = 0.5 * (hd[at[:-1]] + hd[at[:-2] + at[-1:]]) - hess[at]
    dd[..., idx, idx] = 0.0
    return phi, hess, dd


def d2F_quadratic_eigenframe(spectrum, eta_hat, eta_sq):
    """F^{ij,kl} η̂ η̂ for η̂ in the eigenframe, from a given d2F_spectrum at κ.

    eta_sq, the elementwise η̂² that the caller has formed, is overwritten.
    """
    _, hess, dd = spectrum
    ed = np.einsum("...aa->...a", eta_hat)
    quad = ((hess @ ed[..., None])[..., 0] * ed).sum(axis=-1)
    eta_sq *= dd
    return quad + eta_sq.sum(axis=(-2, -1))


def _to_eigenframe(T, X):
    """η̂ = Tᵀ X T: a covariant symmetric matrix in the Weingarten eigenframe."""
    return np.swapaxes(T, -1, -2) @ X @ T


def d2F_from_eig(speed, kappa, T):
    """The tensor F^{ij,kl}, shape (..., n, n, n, n), from the spectrum.

    d2F_spectrum's two parts pushed through T: Φ''_ab T^i_a T^j_a T^k_b T^l_b
    plus ½ D_ab T^i_a T^j_b (T^k_a T^l_b + T^k_b T^l_a), which is symmetric
    in i ↔ j, in k ↔ l and in the pair exchange (ij) ↔ (kl).
    """
    _, hess, dd = d2F_spectrum(speed, kappa)
    off = np.einsum("...ab,...ia,...jb,...ka,...lb->...ijkl", dd, T, T, T, T)
    return np.einsum("...ab,...ia,...ja,...kb,...lb->...ijkl", hess, T, T, T, T) \
        + 0.5 * (off + np.swapaxes(off, -1, -2))

