"""The exponential integrals Ei and E1 at complex arguments, in numpy.

The quantum-Brownian-motion closed forms need both.  ``expint_e1``
evaluates E1(z), choosing per element of w = -z (DLMF 6.6, 6.9, 6.12):
the asymptotic series -(e^w/w) sum k!/w^k for |w| >= 40; the power
series -gamma - log z - sum w^k/(k k!) for |w| < 5 right of Re w = -2
and in the wedge Re w > 2|Im w|; and the continued fraction of E1(z)
elsewhere, each point only as deep as its convergence rate needs (at
most 300 terms).  ``expint_ei`` is -E1(-w) + i pi sgn(Im w).

Branch conventions
------------------
Ei uses the principal branch (cut along the negative real axis).
``expint_ei`` returns the *real principal value* for arguments exactly
on the negative real axis; off the axis the limit from the containing
half-plane applies, so ``Ei(conj(z)) == conj(Ei(z))``.  The QBM closed
forms combine Ei values in conjugate pairs with real prefactors, so
they read the real or imaginary part of one value of each pair.
"""

from __future__ import annotations

import numpy as np


class PoleError(ValueError):
    """Raised when a special function is evaluated at its pole."""


#: The power series serves |w| < 5 right of Re w = -2; further left it cancels
#: on the axis, where Ei is -E1(|w|), and the continued fraction converges.
_SERIES_RADIUS, _SERIES_LEFT = 5.0, -2.0
#: 1/(k k!) for k = 1..120, enough for the wedge Re w > 2|Im w| up to |w| = 40.
_SERIES_COEFFS = 1.0 / (np.arange(1, 121) * np.cumprod(np.arange(1.0, 121)))
#: Continued-fraction depth per point: the tail past depth n weighs about
#: exp(-4 sqrt(n) Re sqrt(z)), so depth (_CF_RATE / Re sqrt(z))^2, capped, holds
#: 5e-15 relative over the region; |w| = 5 on the wedge edge needs 250 of the cap.
_CF_RATE, _CF_DEPTH_CAP = 18.0, 300
#: (lowest |w|, term count) of each band of the asymptotic series, highest first.
_ASYMPTOTIC_BANDS = ((200.0, 12), (80.0, 25), (40.0, 45))


def _e1_series(z, w):
    # E1(z) = -gamma - log z - sum w^k/(k k!), w = -z
    s = np.zeros_like(w)
    for c in _SERIES_COEFFS[::-1]:
        s = (s + c) * w
    return -(np.euler_gamma + np.log(z) + s)


def _e1_continued_fraction(z):
    # E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - 9/...))) from each point's
    # own depth back: deepest first, step k updates the prefix whose depth
    # reaches k, in place.  The in-place steps and the int16 keys keep a
    # figure panel's peak RSS where the depth-300 loop had it
    key = np.minimum(_CF_DEPTH_CAP, np.ceil((_CF_RATE / np.sqrt(z).real) ** 2))
    key = -key.astype(np.int16)  # minus the depth: deepest first
    order = np.argsort(key, kind="stable")
    steps = -np.arange(_CF_DEPTH_CAP + 1, dtype=np.int16)
    reach = np.searchsorted(key[order], steps, side="right")
    z, t, s = z[order], np.zeros_like(z), np.empty_like(z)
    for k in range(-int(key.min()), 0, -1):
        n = reach[k]
        np.subtract(np.add(z[:n], 2 * k + 1, out=s[:n]), t[:n], out=s[:n])
        np.divide(k * k, s[:n], out=t[:n])
    z[order] = np.exp(-z) / (z + 1.0 - t)
    return z


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
        wb = w[band]
        u, s = 1.0 / wb, 1.0
        for k in range(terms - 1, 0, -1):
            s = 1.0 + k * u * s
        out[band] = -(np.exp(wb) * u * s)
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
