"""Special functions with complex arguments, plus adaptive quadrature.

The quantum-Brownian-motion closed forms need the exponential integral
Ei at complex arguments.  ``expint_ei`` is a thin wrapper over scipy's
complex-capable exponential integral with the branch conventions
documented below; the quadrature helper wraps the adaptive
Gauss-Kronrod integrator and converts non-convergence into a typed
error carrying the best estimate.  Each imports its scipy module inside
the call, so importing this module loads no scipy code.

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


def _as_complex(z):
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("argument contains non-finite entries")
    return arr


def expint_ei(z):
    """Exponential integral Ei at real or complex argument.

    Accepts scalars or arrays.  Real arguments use the real-valued
    principal value (Cauchy PV through the pole at 0 for negative
    arguments); complex arguments use the principal branch, continuous
    from each half-plane onto the negative real axis with a +/- i pi
    jump across it.
    """
    import scipy.special as sp

    arr = _as_complex(z)
    if np.any(arr == 0):
        raise PoleError("Ei has a logarithmic singularity at 0")
    out = np.empty(arr.shape, dtype=complex)
    on_axis = arr.imag == 0
    if np.any(on_axis):
        out[on_axis] = sp.expi(arr[on_axis].real)
    if np.any(~on_axis):
        w = arr[~on_axis]
        # E1 gives the principal branch; the sign(Im) * i*pi term moves
        # the cut of -E1(-z) from the positive to the negative real axis.
        out[~on_axis] = -sp.exp1(-w) + 1j * np.pi * np.sign(w.imag)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        try:
            value, err = scipy.integrate.quad(
                f,
                a,
                b,
                epsabs=spec.abs_tol,
                epsrel=spec.rel_tol,
                limit=spec.max_subdivisions,
            )
        except scipy.integrate.IntegrationWarning as warn:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
                value, err = scipy.integrate.quad(
                    f,
                    a,
                    b,
                    epsabs=spec.abs_tol,
                    epsrel=spec.rel_tol,
                    limit=spec.max_subdivisions,
                )
            raise ConvergenceError(str(warn), value, err) from None
    if err > max(spec.abs_tol, spec.rel_tol * abs(value)) * 10:
        raise ConvergenceError(
            f"quadrature error estimate {err:g} exceeds tolerance", value, err
        )
    return float(value)
