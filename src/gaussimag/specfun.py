"""Special functions with complex arguments, plus adaptive quadrature.

The quantum-Brownian-motion closed forms need the exponential integrals
Ei and E1 at complex arguments.  ``expint_e1`` evaluates E1(z) in numpy,
choosing per element of w = -z (DLMF 6.6, 6.9, 6.12): the asymptotic
series -(e^w/w) sum k!/w^k for |w| >= 40; the power series
-gamma - log z - sum w^k/(k k!) for |w| < 5 right of Re w = -2 and in the
wedge Re w > 2|Im w|; and the continued fraction of E1(z) elsewhere.
``expint_ei`` is -E1(-w) + i pi sgn(Im w).
``integrate_adaptive`` wraps scipy's Gauss-Kronrod integrator, imported
inside the call, and converts non-convergence into a typed error
carrying the best estimate.

Branch conventions
------------------
Ei uses the principal branch (cut along the negative real axis).
``expint_ei`` returns the *real principal value* for arguments exactly
on the negative real axis; off the axis the limit from the containing
half-plane applies, so ``Ei(conj(z)) == conj(Ei(z))``.  The closed forms
served here always combine Ei values in conjugate pairs with real
prefactors, which is exactly what makes their values real.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np


class PoleError(ValueError):
    """Raised when a special function is evaluated at its pole."""


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
    """Tolerances and budget for adaptive quadrature.

    ``tail_cut`` is the finite surrogate for semi-infinite upper limits,
    in units of the bath cutoff frequency: the Ohmic weight e^{-u}
    bounds the truncated mass of every integrand used here below
    ~e^{-tail_cut}.
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_subdivisions: int = 200
    tail_cut: float = 40.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")
        if self.tail_cut < 10:
            raise ValueError("tail_cut must be >= 10")


#: The power series serves |w| < 5 right of Re w = -2; further left it cancels
#: on the axis, where Ei is -E1(|w|), and the continued fraction converges.
_SERIES_RADIUS, _SERIES_LEFT = 5.0, -2.0
#: 1/(k k!) for k = 1..120, enough for the wedge Re w > 2|Im w| up to |w| = 40.
_SERIES_COEFFS = 1.0 / (np.arange(1, 121) * np.cumprod(np.arange(1.0, 121)))
#: Continued-fraction depth: 5e-15 relative at |w| = 5 on the wedge edge.
_CF_DEPTH = 300
#: (lowest |w|, term count) of each band of the asymptotic series, highest first.
_ASYMPTOTIC_BANDS = ((200.0, 12), (80.0, 25), (40.0, 45))


def _e1_series(z, w):
    # E1(z) = -gamma - log z - sum w^k/(k k!), w = -z
    s = np.zeros_like(w)
    for c in _SERIES_COEFFS[::-1]:
        s = (s + c) * w
    return -(np.euler_gamma + np.log(z) + s)


def _e1_continued_fraction(z):
    # E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - 9/...)))
    t = np.zeros_like(z)
    for k in range(_CF_DEPTH, 0, -1):
        t = k * k / (z + (2 * k + 1) - t)
    return np.exp(-z) / (z + 1.0 - t)


def expint_e1(z):
    """Exponential integral E1 at real or complex argument, principal branch.

    Accepts scalars or arrays.  The cut runs along the negative real
    axis, where the sign of a zero imaginary part picks the side, so
    ``E1(conj z) == conj(E1(z))`` everywhere.  Each expansion is chosen
    on w = -z, the argument of Ei(w) = -E1(-w) + i pi sgn(Im w).
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("argument contains non-finite entries")
    if np.any(z == 0):
        raise PoleError("Ei and E1 have a logarithmic singularity at 0")
    w = -z
    r = np.abs(w)
    near = r < _ASYMPTOTIC_BANDS[-1][0]
    series = near & ((w.real > 2.0 * np.abs(w.imag))
                     | ((r < _SERIES_RADIUS) & (w.real > _SERIES_LEFT)))
    out = np.empty(w.shape, dtype=complex)
    # each expansion runs only where it has elements: its loop costs the
    # same on an empty array
    if np.any(series):
        out[series] = _e1_series(z[series], w[series])
    if np.any(cf := near & ~series):
        out[cf] = _e1_continued_fraction(z[cf])
    upper = np.inf
    for lower, terms in _ASYMPTOTIC_BANDS:
        band = (r >= lower) & (r < upper)
        upper = lower
        if not np.any(band):
            continue
        u, s = 1.0 / w[band], 1.0
        for k in range(terms - 1, 0, -1):
            s = 1.0 + k * u * s
        out[band] = -(np.exp(w[band]) * u * s)
    return out if out.ndim else complex(out)


def expint_ei(z):
    """Exponential integral Ei at real or complex argument.

    Accepts scalars or arrays.  Real arguments use the real-valued
    principal value (Cauchy PV through the pole at 0 for negative
    arguments); complex arguments use the principal branch, continuous
    from each half-plane onto the negative real axis with a +/- i pi
    jump across it.
    """
    w = np.asarray(z, dtype=complex)
    # the i pi sgn(Im w) term moves the cut of -E1(-w) to the negative axis
    out = -np.asarray(expint_e1(-w)) + 1j * np.pi * np.sign(w.imag)
    out = np.where(w.imag == 0, out.real, out)
    return out if out.ndim else complex(out)


def integrate_adaptive(f, a: float, b: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Adaptive Gauss-Kronrod integral of ``f`` over [a, b].

    Deterministic; raises :class:`ConvergenceError` (carrying the best
    estimate and its error bound) if the requested tolerance cannot be
    met within the subdivision budget.
    """
    import scipy.integrate

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
