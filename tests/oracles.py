"""Reference routes that the tests compare the package against.

* ``coeff_gamma_quadrature``, ``coeff_delta_quadrature`` and
  ``coeff_pi_quadrature``: the QBM coefficients by adaptive quadrature of
  their defining double integrals, with the bath-frequency integral
  reduced in closed form (``bath_sin_moment``, ``bath_cos_moment``).
* ``gamma_capital_mp`` and ``gamma_capital_quadrature``: Gamma at 50 digits,
  in closed form, and by mpmath quadrature of its defining integral.
* ``steady_state_n12_mp``: N12 at tau -> inf from the 50-digit limits of the
  closed forms.
* ``n12_scalar_oracle``: N12 through the scalar co-rotating integral on
  refined-grid cumulative Simpson sums, an algebraic route independent of
  the solver's matrix Wbar and of its integration rule.
* ``wbar_lobatto5``: Wbar by the 5-point Gauss-Lobatto rule at a tenth of
  the grid step, a rule that the solver does not use.
* ``integrate_adaptive``: scipy's Gauss-Kronrod integrator, with
  non-convergence turned into :class:`ConvergenceError` carrying the best
  estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import mpmath as mp
import numpy as np
import scipy.integrate

from gaussimag import qbm
from gaussimag.qbm import QbmConfig, Trajectory

# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------


class ConvergenceError(RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance.

    Attributes
    ----------
    estimate : best available estimate of the integral
    error_bound : the integrator's error estimate for it
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive quadrature."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")


def integrate_adaptive(f, a: float, b: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Adaptive Gauss-Kronrod integral of ``f`` over [a, b].

    Deterministic; raises :class:`ConvergenceError` (carrying the best
    estimate and its error bound) if the requested tolerance cannot be
    met within the subdivision budget.
    """
    if not a < b:
        raise ValueError(f"integration interval is empty: [{a}, {b}]")

    def quad():
        return scipy.integrate.quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                                    limit=spec.max_subdivisions)

    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        try:
            value, err = quad()
        except scipy.integrate.IntegrationWarning as warn:
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            value, err = quad()
            raise ConvergenceError(str(warn), value, err) from None
    if err > max(spec.abs_tol, spec.rel_tol * abs(value)) * 10:
        raise ConvergenceError(
            f"quadrature error estimate {err:g} exceeds tolerance", value, err
        )
    return float(value)


# ---------------------------------------------------------------------------
# QBM coefficients by quadrature
# ---------------------------------------------------------------------------

def bath_sin_moment(s: float) -> float:
    """Inner frequency integral of J(u) sin(u s): 2 s / (1 + s^2)^2."""
    return 2.0 * s / (1.0 + s * s) ** 2


def bath_cos_moment(cfg: QbmConfig, s: float) -> float:
    """Inner frequency integral of J(u) (2P+1) cos(u s) for the regime.

    High temperature: 2 theta / (1 + s^2).  Low temperature (weight
    1 + 2 e^{-u/theta}): Re[1/(1-is)^2] + 2 Re[1/(b-is)^2].
    """
    if cfg.regime == "high":
        return 2.0 * cfg.theta / (1.0 + s * s)
    b = cfg.cutoff_shift
    return (1.0 - s * s) / (1.0 + s * s) ** 2 + 2.0 * (b * b - s * s) / (
        b * b + s * s
    ) ** 2


def _quadrature(cfg: QbmConfig, tau: float, integrand) -> float:
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return 0.0 if tau == 0 else cfg.alpha**2 * integrate_adaptive(integrand, 0.0, tau)


def coeff_gamma_quadrature(cfg: QbmConfig, tau: float) -> float:
    """gamma(tau) by adaptive quadrature of the defining integral."""
    return _quadrature(cfg, tau, lambda s: np.sin(s / cfg.x) * bath_sin_moment(s))


def coeff_delta_quadrature(cfg: QbmConfig, tau: float) -> float:
    """Delta(tau) by adaptive quadrature with the regime's thermal weight."""
    return _quadrature(cfg, tau, lambda s: np.cos(s / cfg.x) * bath_cos_moment(cfg, s))


def coeff_pi_quadrature(cfg: QbmConfig, tau: float) -> float:
    """Pi(tau) by adaptive quadrature with the regime's thermal weight."""
    return _quadrature(cfg, tau, lambda s: np.sin(s / cfg.x) * bath_cos_moment(cfg, s))


# ---------------------------------------------------------------------------
# Gamma and the steady state at 50 digits
# ---------------------------------------------------------------------------

def gamma_capital_mp(cfg: QbmConfig, tau: float) -> float:
    """Gamma(tau) = 2 [F(tau) - F(0+)] at 50 digits, 0 < tau <= 2.1e5, with
    F = (alpha^2/2)[e^{-1/x} Re((1 - z) Ei(z)) + e^{1/x} Re((1 + w) E1(w))],
    z = (1 + i tau)/x and w = (1 - i tau)/x, from mpmath's ``ei`` and ``e1``."""
    with mp.workdps(50):
        x, t = mp.mpf(cfg.x), mp.mpf(tau)

        def f(z, w):
            return (mp.exp(-1 / x) * mp.re((1 - z) * mp.ei(z))
                    + mp.exp(1 / x) * mp.re((1 + w) * mp.e1(w)))

        return float(mp.mpf(cfg.alpha) ** 2 * (f(mp.mpc(1, t) / x, mp.mpc(1, -t) / x)
                                               - f(1 / x, 1 / x)))


def gamma_capital_quadrature(cfg: QbmConfig, tau: float) -> float:
    """Gamma(tau) = 2 int_0^tau gamma by mpmath quadrature at 30 digits, for
    tau <= 60: the double integral of gamma's definition is the single
    integral 2 alpha^2 int_0^tau (tau - u) sin(u/x) 2u/(1 + u^2)^2 du, split
    at every half period of sin(u/x)."""
    with mp.workdps(30):
        x, t = mp.mpf(cfg.x), mp.mpf(tau)
        pieces = mp.linspace(0, t, int(mp.ceil(t / (mp.pi * x))) + 2)
        value = mp.quad(lambda u: (t - u) * mp.sin(u / x) * 2 * u / (1 + u * u) ** 2, pieces)
        return float(2 * mp.mpf(cfg.alpha) ** 2 * value)


def steady_state_n12_mp(cfg: QbmConfig) -> float:
    """N12(inf) at 50 digits from the tau -> inf limits of the closed forms
    (Im Ei((b + i tau)/x) -> pi; Re Ei((b + i tau)/x) and E1((b - i tau)/x)
    -> 0; the low-T boundary terms -> 0), with mpmath's ``ei`` at +-b/x."""
    with mp.workdps(50):
        x, a2, theta = mp.mpf(cfg.x), mp.mpf(cfg.alpha) ** 2, mp.mpf(cfg.theta)
        gamma = a2 * mp.pi * mp.exp(-1 / x) / (2 * x)
        if cfg.regime == "high":
            delta = mp.pi * a2 * theta * mp.exp(-1 / x)
            pi_ = a2 * theta * mp.exp(-1 / x) / 2 * (2 * mp.ei(1 / x)
                                                      - 2 * mp.exp(2 / x) * mp.ei(-1 / x))
        else:
            delta = pi_ = 0
            for b, weight in ((mp.mpf(1), 1), (1 + 1 / theta, 2)):
                delta += weight * a2 * mp.pi * mp.exp(-b / x) / (2 * x)
                pi_ += weight * a2 * (mp.exp(-b / x) * mp.ei(b / x)
                                      + mp.exp(b / x) * mp.ei(-b / x)) / (2 * x)
        return float(-(delta * 2 / x + pi_ * 2 * gamma) / ((2 * gamma) ** 2 + (2 / x) ** 2))


# ---------------------------------------------------------------------------
# N12 by the scalar co-rotating integral
# ---------------------------------------------------------------------------

#: Refined points per grid interval of the Simpson route.
REFINEMENT = 4


def refine_grid(grid: np.ndarray, factor: int = REFINEMENT) -> np.ndarray:
    """``grid`` with every interval cut into ``factor`` equal parts."""
    base = grid[:-1]
    widths = np.diff(grid)
    offsets = np.arange(factor) / factor
    fine = (base[:, None] + widths[:, None] * offsets[None, :]).ravel()
    return np.append(fine, grid[-1])


def _simpson_halves(f1, f2, f3, x21, x32) -> np.ndarray:
    """Simpson integral over [x_1, x_2] of the parabola through the points
    (x_1, f1), (x_2, f2), (x_3, f3), with widths x21 = |x_2 - x_1| and
    x32 = |x_3 - x_2|, so the points may run backwards (a second half)."""
    x21_x31, x21_x32 = x21 / (x21 + x32), x21 / x32
    ratio = x21_x31 * x21_x32
    return x21 / 6 * ((3 - x21_x31) * f1 + (3 + ratio + x21_x31) * f2 + -ratio * f3)


def _simpson_parts(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Simpson integral of ``y`` over each interval of the 1-d grid ``x``,
    along the last axis, in the arithmetic of
    ``scipy.integrate.cumulative_simpson`` on unequal intervals: each even
    interval 2j is the first half of the panel (2j, 2j+1, 2j+2), each odd
    interval its second half, and an even last interval the second half of
    the panel that ends the grid.  Fewer than three points fall back to the
    trapezoid rule, as SciPy does."""
    dx = np.diff(x)
    if y.shape[-1] < 3:
        return dx * (y[..., 1:] + y[..., :-1]) / 2.0
    f1, f2, f3, x21, x32 = y[..., :-2:2], y[..., 1:-1:2], y[..., 2::2], dx[:-1:2], dx[1::2]
    parts = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    parts[..., :-1:2] = _simpson_halves(f1, f2, f3, x21, x32)
    parts[..., 1::2] = _simpson_halves(f3, f2, f1, x32, x21)
    parts[..., -1] = _simpson_halves(y[..., -1], y[..., -2], y[..., -3], dx[-1], dx[-2])
    return parts


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` over the 1-d grid ``x`` along
    the last axis, starting from 0: bit-identical to
    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)``."""
    parts = _simpson_parts(y, x)
    out = np.concatenate([np.zeros(parts.shape[:-1] + (1,)), parts], axis=-1)
    return np.cumsum(out, axis=-1, out=out)


def gamma_capital_simpson(cfg: QbmConfig, grid: np.ndarray) -> np.ndarray:
    """Gamma at the nodes ``grid`` as twice the cumulative Simpson integral of
    the closed-form gamma on the grid refined ``REFINEMENT`` times."""
    fine = refine_grid(grid)
    return 2.0 * cumulative_simpson(qbm.coefficients(cfg, fine)[0], fine)[::REFINEMENT]


def n12_scalar_oracle(traj: Trajectory) -> np.ndarray:
    """N12 at the trajectory's nodes via the scalar co-rotating integral.

    Independent algebraic route (trig-expanded cumulative integrals on
    its own whole-grid evaluation of the refined coefficients, unscaled,
    so for Gamma below ~700) used to cross-check the matrix Wbar path:

      N12(tau) = e^{-Gamma} * integral of
                 e^{Gamma}[Delta sin(2(s-tau)/x) - Pi cos(2(s-tau)/x)] ds.
    """
    fine = refine_grid(traj.tau)
    gamma, delta, pi_, _ = qbm.coefficients(traj.cfg, fine)
    big_gamma = 2.0 * cumulative_simpson(gamma, fine)
    x = traj.cfg.x
    weight = np.exp(big_gamma)
    sin2, cos2 = np.sin(2.0 * fine / x), np.cos(2.0 * fine / x)
    a1, a2, b1, b2 = cumulative_simpson(np.array([weight * delta * sin2, weight * delta * cos2,
                                                   weight * pi_ * sin2, weight * pi_ * cos2]), fine)
    n12 = np.exp(-big_gamma) * (cos2 * (a1 - b2) - sin2 * (a2 + b1))
    return n12[::REFINEMENT]


#: Offsets and weights of the 5-point Gauss-Lobatto rule on [0, 1].
_LOBATTO5_OFFSETS = np.array([0.0, (1.0 - np.sqrt(3.0 / 7.0)) / 2.0, 0.5,
                              (1.0 + np.sqrt(3.0 / 7.0)) / 2.0])
_LOBATTO5_WEIGHTS = np.array([9.0, 49.0, 64.0, 49.0, 9.0]) / 180.0


def wbar_lobatto5(cfg: QbmConfig, grid: np.ndarray, split: int = 10) -> np.ndarray:
    """Wbar (2, 2, m) at the nodes ``grid``: every interval cut into ``split``
    equal parts, each integrated by the 5-point Gauss-Lobatto rule, with the
    solver's closed-form Gamma, Delta and Pi, unscaled (Gamma below ~700).

      Wbar(tau) = e^{-Gamma(tau)} R(tau) [int_0^tau e^{Gamma} R^T M R ds] R(tau)^T
    """
    fine = refine_grid(grid, split)
    widths = np.diff(fine)
    pts = np.append((fine[:-1, None] + widths[:, None] * _LOBATTO5_OFFSETS).ravel(), fine[-1])
    _, delta, pi_, big_gamma = qbm.coefficients(cfg, pts)
    c, s = np.cos(pts / cfg.x), np.sin(pts / cfg.x)
    rot = np.array([[c, s], [-s, c]])
    m_mat = np.array([[delta, -pi_ / 2.0], [-pi_ / 2.0, np.zeros_like(pts)]])
    y = np.einsum("jia,jka,kla->ila", rot, m_mat, rot) * np.exp(big_gamma)
    values = np.stack([y[..., i:-1:4] for i in range(4)] + [y[..., 4::4]])
    parts = widths * np.tensordot(_LOBATTO5_WEIGHTS, values, axes=1)
    total = np.concatenate([np.zeros((2, 2, 1)), np.cumsum(parts, axis=-1)], axis=-1)
    at = slice(None, None, split)
    rot_n = rot[..., ::4][..., at]
    return np.einsum("ija,jka,lka->ila", rot_n, total[..., at] * np.exp(-big_gamma[::4][at]),
                     rot_n)
