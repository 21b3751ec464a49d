"""Reference routes that the tests compare the package against.

* ``coeff_gamma_quadrature``, ``coeff_delta_quadrature`` and
  ``coeff_pi_quadrature``: the QBM coefficients by adaptive quadrature of
  their defining double integrals, with the bath-frequency integral
  reduced in closed form (``bath_sin_moment``, ``bath_cos_moment``).
* ``n12_scalar_oracle``: N12 through the scalar co-rotating integral, an
  algebraic route independent of the solver's matrix Wbar.
* ``integrate_adaptive``: scipy's Gauss-Kronrod integrator, with
  non-convergence turned into :class:`ConvergenceError` carrying the best
  estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

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
# N12 by the scalar co-rotating integral
# ---------------------------------------------------------------------------

def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` over the 1-d grid ``x`` along
    the last axis, starting from 0: bit-identical to
    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)``."""
    return qbm._running_sum(np.zeros(y.shape[:-1]), qbm._simpson_parts(y, x))


def n12_scalar_oracle(traj: Trajectory) -> np.ndarray:
    """N12 at the trajectory's nodes via the scalar co-rotating integral.

    Independent algebraic route (trig-expanded cumulative integrals on
    its own whole-grid evaluation of the refined coefficients, unscaled,
    so for Gamma below ~700) used to cross-check the matrix Wbar path:

      N12(tau) = e^{-Gamma} * integral of
                 e^{Gamma}[Delta sin(2(s-tau)/x) - Pi cos(2(s-tau)/x)] ds.
    """
    fine = qbm._refine_grid(traj.tau, qbm.NOISE_REFINEMENT)
    gamma, delta, pi_ = qbm.coefficients(traj.cfg, fine)
    big_gamma = 2.0 * _cumulative_simpson(gamma, fine)
    x = traj.cfg.x
    weight = np.exp(big_gamma)
    sin2, cos2 = np.sin(2.0 * fine / x), np.cos(2.0 * fine / x)
    a1, a2, b1, b2 = _cumulative_simpson(np.array([weight * delta * sin2, weight * delta * cos2,
                                                   weight * pi_ * sin2, weight * pi_ * cos2]), fine)
    n12 = np.exp(-big_gamma) * (cos2 * (a1 - b2) - sin2 * (a2 + b1))
    return n12[::qbm.NOISE_REFINEMENT]
