"""The exponential integral E1 at complex arguments, in numpy.

``expint_e1_pair`` evaluates E1 at z and at -conj(z), choosing per element
of w = -z (DLMF 6.6, 6.9, 6.12): the asymptotic series -(e^w/w) sum k!/w^k
for |w| >= 40, as its even plus its odd powers of 1/w, whose sum at the
mirror -conj(z) is conj(even - odd); the power series -gamma - log z -
sum w^k/(k k!) for |w| < 5 right of Re w = -2 and in the wedge
Re w > 2|Im w|; and the continued fraction of E1(z) elsewhere, each point
only as deep as its convergence rate needs (at most 300 terms).  The cut
runs along the negative real axis, where the sign of a zero imaginary part
picks the side, so E1(conj z) == conj(E1(z)).  ``qbm`` forms the closed
forms' Ei(w) = -E1(-w) + i pi sgn(Im w) from the pair.
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


def _asymptotic_parts(u, terms):
    # the even and the odd k of sum_{k < terms} k! u^k, each by Horner's rule
    # in u^2 with the ratio k (k - 1) of neighbouring terms
    q, parts = u * u, [1.0, 1.0]
    for k in range(terms - 1, 1, -1):
        parts[k % 2] = 1.0 + k * (k - 1) * q * parts[k % 2]
    return parts[0], u * parts[1]


def expint_e1_pair(z):
    """(E1(z), E1(-conj z)) at real or complex z, principal branch.

    Accepts scalars or arrays.  The two points share |w| and so their band
    of the asymptotic series, which runs once for both.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("argument contains non-finite entries")
    if np.any(z == 0):
        raise PoleError("E1 has a logarithmic singularity at 0")
    r = np.abs(z)
    near = r < _ASYMPTOTIC_BANDS[-1][0]
    outs = []
    for point in (z, -np.conj(z)):
        w, out = -point, np.empty(z.shape, dtype=complex)
        series = near & ((w.real > 2.0 * np.abs(w.imag))
                         | ((r < _SERIES_RADIUS) & (w.real > _SERIES_LEFT)))
        # each expansion runs only where it has elements: its loop costs the
        # same on an empty array
        if np.any(series):
            out[series] = _e1_series(point[series], w[series])
        if np.any(cf := near & ~series):
            out[cf] = _e1_continued_fraction(point[cf])
        outs.append(out)
    w, upper = -z, np.inf
    for lower, terms in _ASYMPTOTIC_BANDS:
        band = (r >= lower) & (r < upper)
        upper = lower
        if np.any(band):
            wb = w[band]
            u = 1.0 / wb
            even, odd = _asymptotic_parts(u, terms)
            outs[0][band] = -(np.exp(wb) * u * (even + odd))
            outs[1][band] = -(np.exp(-np.conj(wb)) * -np.conj(u)
                              * (np.conj(even) - np.conj(odd)))
    return tuple(out if out.ndim else complex(out) for out in outs)
