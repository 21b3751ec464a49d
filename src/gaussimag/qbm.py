"""Quantum Brownian Motion channel and its imaginarity trajectory.

A single mode couples to an Ohmic bath J(omega) = (omega/omega_c)
e^{-omega/omega_c}.  In dimensionless time tau = omega_c t, with
x = omega_c / omega_0 and theta = k_B T / hbar omega_c (units
hbar = k_B = 1), the second-order master equation gives a Gaussian
channel

    T(tau) = e^{-Gamma(tau)/2} R(tau),     N(tau) = 2 Wbar(tau),

where R is the free rotation by tau/x, Gamma is twice the accumulated
damping coefficient gamma, and Wbar integrates the diffusion matrix
M = [[Delta, -Pi/2], [-Pi/2, 0]] in the co-rotating, damped frame.

The coefficient functions gamma, Delta, Pi are closed-form expressions
built from the exponential integrals Ei and E1 at complex arguments.
Those enter in conjugate pairs, so each formula reads the real or the
imaginary part of one Ei or E1 value and is evaluated in real arithmetic.

Temperature enters through the thermal weight 2 P(omega) + 1:

* high-temperature regime: 2P+1 ~ 2 theta / u  (u = omega/omega_c);
* low-temperature regime:  2P+1 ~ 1 + 2 e^{-u/theta}, which shifts the
  effective cutoff to b = 1 + 1/theta in half of the terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .gaussian import GaussianChannel
from .measures import channel_measure_ic_stack
from .specfun import expint_e1, expint_e1_pair, expint_ei

#: Default trajectory grid step in units of tau.
DEFAULT_STEP = 0.01

#: Largest coupling: the closed forms are second order in alpha.
ALPHA_MAX = 1.0

#: Largest alpha**2 * theta, the scale of the high-temperature diffusion.
#: The absolute cross-check error grows with it: at alpha 0.03, x 0.5 it is
#: 2.2e-11 at theta 1e8 and 1.49e-8 (failing) at theta 1e12; at the bound it
#: stays below 6e-9 for x 0.5-0.9 and horizons up to 615.7 (alpha 1 at x 0.9
#: included: Gamma passes 700 there, and the rescaled noise integral stays finite).
NOISE_SCALE_MAX = 1e5

#: Largest exponent of the closed forms: exp(2/x) at high T and exp(b/x),
#: b = 1 + 1/theta, at low T overflow near 709.8.  At alpha 0.03, x 0.5 and
#: 0.9 and horizons 60 and 615.7, b/x = 705 passes the cross-check (error
#: <= 4.4e-16) and b/x = 709 fails with a non-finite Delta.
LOW_T_EXPONENT_MAX = 700.0


class ClosedFormError(RuntimeError):
    """A closed-form coefficient produced a non-finite value, signalling
    overflow or a branch or transcription fault."""


class FormulaInconsistencyError(RuntimeError):
    """The generic channel measure and the specialized trajectory formula
    disagree beyond tolerance."""


class IntegrationResolutionError(RuntimeError):
    """The noise-matrix integral lost symmetry beyond tolerance."""


@dataclass(frozen=True)
class QbmConfig:
    """Physical parameters of the QBM channel.

    alpha  -- dimensionless system-bath coupling (weak: alpha << 1)
    x      -- non-Markovianity parameter omega_c / omega_0
    theta  -- dimensionless temperature k_B T / hbar omega_c
    regime -- 'high' or 'low' temperature approximation of 2P+1
    """

    alpha: float
    x: float
    theta: float
    regime: str = "high"

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.alpha, self.x, self.theta)):
            raise ValueError("alpha, x, theta must all be positive and finite")
        if self.alpha > ALPHA_MAX:
            raise ValueError(
                f"alpha must be at most {ALPHA_MAX:g} (weak coupling), got {self.alpha:g}"
            )
        if self.alpha**2 * self.theta > NOISE_SCALE_MAX:
            raise ValueError(
                f"theta must be at most {NOISE_SCALE_MAX / self.alpha**2:.3g} at "
                f"alpha {self.alpha:g} (alpha**2 * theta <= {NOISE_SCALE_MAX:g}), "
                f"got {self.theta:g}"
            )
        if self.regime not in ("high", "low"):
            raise ValueError(f"regime must be 'high' or 'low', got {self.regime!r}")
        limit = LOW_T_EXPONENT_MAX
        if self.regime == "high" and 2.0 / self.x > limit:
            raise ValueError(f"x must be at least {2.0 / limit:.3g} in the high regime "
                             f"(2/x <= {limit:g}), got {self.x:g}")
        if self.regime == "low" and self.cutoff_shift / self.x > limit:
            bound = f"in the low regime ((1 + 1/theta)/x <= {limit:g})"
            if limit * self.x <= 1.0:
                raise ValueError(f"x must exceed {1.0 / limit:.3g} {bound}, got {self.x:g}")
            raise ValueError(f"theta must be at least {1.0 / (limit * self.x - 1.0):.3g} "
                             f"at x {self.x:g} {bound}, got {self.theta:g}")

    @property
    def cutoff_shift(self) -> float:
        """Effective low-temperature cutoff b = 1 + 1/theta."""
        return 1.0 + 1.0 / self.theta


# ---------------------------------------------------------------------------
# closed-form coefficients
# ---------------------------------------------------------------------------

def _real_checked(values: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ClosedFormError(f"{name}: non-finite closed-form value")
    return values


def _ei_pairs(tau: np.ndarray, x: float, b: float = 1.0):
    """e_p = Ei(w), w = (b + i tau)/x, formed from E1(-w) as ``expint_ei``
    forms it, and k = E1(conj w): one pair batch.

    Ei(conj z) == conj(Ei(z)) gives the -i tau value, so a conjugate pair
    sums to 2 Re e_p and differs by 2i Im e_p.  The other pair is
    Ei((-b +/- i tau)/x) = -k (conjugated) +/- i pi for tau > 0, so the
    closed forms read Re k and Im k: Im Ei((-b + i tau)/x) is pi minus a
    part of size e^{-b/x}, which pi + Im would lose at small x.
    """
    w = (b + 1j * tau) / x
    e1, k = expint_e1_pair(-w)
    e_p = -e1 + 1j * np.pi * np.sign(w.imag)
    return np.where(w.imag == 0, e_p.real, e_p), k


def _zero_at_origin(tau: np.ndarray, values: np.ndarray) -> np.ndarray:
    # At tau = 0 every closed form is a difference of equal terms; the
    # tau -> 0+ limit of every coefficient is 0.
    return np.where(tau == 0.0, 0.0, values)


def _ei_constants(cfg: QbmConfig) -> tuple:
    """(Ei(b/x), Ei(-b/x) = -E1(b/x)) of the Pi closed forms for b = 1 and,
    at low temperature, b = 1 + 1/theta: real, evaluated once per trajectory."""
    cutoffs = (1.0,) if cfg.regime == "high" else (1.0, cfg.cutoff_shift)
    return tuple((expint_ei(b / cfg.x).real, -expint_e1(b / cfg.x).real) for b in cutoffs)


def _delta_pi_high(cfg: QbmConfig, pairs, scalars):
    x, a2, theta = cfg.x, cfg.alpha**2, cfg.theta
    e_p, k = pairs
    pref = a2 * theta * np.exp(-1.0 / x) / 2.0
    b1 = 2.0 * e_p.imag
    b2 = 2.0 * k.imag
    delta = pref * (b1 + np.exp(2.0 / x) * b2)
    ei_pos, ei_neg = scalars
    c1 = -2.0 * e_p.real + 2.0 * ei_pos
    c2 = -2.0 * ei_neg - 2.0 * k.real
    pi_ = pref * (c1 + np.exp(2.0 / x) * c2)
    return delta, pi_


def _low_t_bath_terms(cfg: QbmConfig, t: np.ndarray, b: float, weight: float, pairs,
                      scalars):
    """(Delta, Pi) of one bath copy with cutoff b and thermal weight ``weight``,
    from the ``_ei_pairs(t, x, b)`` batches and ``scalars`` = (Ei(b/x), Ei(-b/x)).

    The low-T weight 1 + 2 e^{-u/theta} makes the coefficients the sum of
    the copy (b, weight) = (1, 1) and the cutoff-shifted copy
    (1 + 1/theta, 2).
    """
    x, a2 = cfg.x, cfg.alpha**2
    g, k = pairs
    ei_b, ei_mb = scalars
    boundary = t / (b * b + t * t)
    delta = weight * a2 * (np.cos(t / x) * boundary + (1.0 / (4.0 * x)) * (
        np.exp(-b / x) * (2.0 * g.imag) - np.exp(b / x) * 2.0 * k.imag))
    pi_ = weight * a2 * (np.sin(t / x) * boundary - (1.0 / (4.0 * x)) * (
        np.exp(-b / x) * (2.0 * g.real - 2.0 * ei_b)
        - np.exp(b / x) * (2.0 * k.real + 2.0 * ei_mb)))
    return delta, pi_


def _delta_pi_low(cfg: QbmConfig, t: np.ndarray, pairs, consts):
    b = cfg.cutoff_shift
    delta_1, pi_1 = _low_t_bath_terms(cfg, t, 1.0, 1.0, pairs, consts[0])
    delta_b, pi_b = _low_t_bath_terms(cfg, t, b, 2.0, _ei_pairs(t, cfg.x, b), consts[1])
    return delta_1 + delta_b, pi_1 + pi_b


def coefficients(cfg: QbmConfig, t: np.ndarray, consts: tuple | None = None):
    """(gamma, Delta, Pi) on the 1-d array ``t``, closed form.

    The ``_ei_pairs`` batch (and, at low temperature, the cutoff-shifted
    one) is evaluated once and shared by all three
    coefficients; each coefficient is checked to be finite.
    ``consts`` is ``_ei_constants(cfg)``, evaluated here when omitted.
    """
    x, a2 = cfg.x, cfg.alpha**2
    consts = consts or _ei_constants(cfg)
    pairs = _ei_pairs(t, x)
    e_p, k = pairs
    gamma = (a2 / (4.0 * x)) * (
        np.exp(-1.0 / x) * (2.0 * e_p.imag)
        + np.exp(1.0 / x) * 2.0 * k.imag
        - 4.0 * x * np.sin(t / x) / (1.0 + t * t)
    )
    if cfg.regime == "high":
        delta, pi_ = _delta_pi_high(cfg, pairs, consts[0])
    else:
        delta, pi_ = _delta_pi_low(cfg, t, pairs, consts)
    return tuple(
        _zero_at_origin(t, _real_checked(values, name))
        for values, name in ((gamma, "gamma"), (delta, "Delta"), (pi_, "Pi"))
    )


# ---------------------------------------------------------------------------
# Gamma and the noise integral at the grid nodes
# ---------------------------------------------------------------------------

def _make_grid(horizon: float, step: float) -> np.ndarray:
    if not (0 < horizon < np.inf and 0 < step < np.inf):
        raise ValueError("horizon and step must be positive and finite")
    try:
        grid = np.arange(0.0, horizon + 0.5 * step, step)
    except ValueError as exc:  # more points than an array can index
        raise ValueError(f"step {step:g} is too small for horizon {horizon:g}: {exc}") from None
    if grid[-1] < horizon - 1e-12:
        grid = np.append(grid, horizon)
    return grid


#: Internal subdivision of each grid interval for the noise integral.
#: The Simpson error of the first panel would otherwise leave a spurious
#: O(step^4) negativity in the physicality form at the first node.
NOISE_REFINEMENT = 4

#: Grid intervals per chunk of the one walk over the grid.  Even, so that
#: every chunk starts at an even node and no Simpson panel (2j, 2j+1, 2j+2)
#: straddles a seam.
_CHUNK = 4096

#: Growth of Gamma after which the noise integral's reference moves, so
#: that its weights e^{Gamma - ref} stay near e^64 at most.
_REBASE = 64.0


def _refine_grid(grid: np.ndarray, factor: int) -> np.ndarray:
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
    along the last axis.

    The arithmetic is that of ``scipy.integrate.cumulative_simpson`` on
    unequal intervals: each even interval 2j is the first half of the
    panel (2j, 2j+1, 2j+2), each odd interval its second half, and an even
    last interval the second half of the panel that ends the grid.  A part
    reads only its own panel, so the parts of the points 2j..k equal those
    of the whole grid.  Fewer than three points fall back to the trapezoid
    rule, as SciPy does.
    """
    dx = np.diff(x)
    if y.shape[-1] < 3:
        return dx * (y[..., 1:] + y[..., :-1]) / 2.0
    f1, f2, f3, x21, x32 = y[..., :-2:2], y[..., 1:-1:2], y[..., 2::2], dx[:-1:2], dx[1::2]
    parts = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    parts[..., :-1:2] = _simpson_halves(f1, f2, f3, x21, x32)
    parts[..., 1::2] = _simpson_halves(f3, f2, f1, x32, x21)
    parts[..., -1] = _simpson_halves(y[..., -1], y[..., -2], y[..., -3], dx[-1], dx[-2])
    return parts


def _running_sum(start, parts: np.ndarray) -> np.ndarray:
    """``start`` followed by its running sums with ``parts`` (last axis).

    np.cumsum adds in sequence, so seeding it with the total carried from
    the previous chunk continues the whole-grid sum bit for bit.
    """
    out = np.concatenate([np.expand_dims(start, -1), parts], axis=-1)
    return np.cumsum(out, axis=-1, out=out)


def _rotations(tau: np.ndarray, x: float) -> np.ndarray:
    """R(tau) for every tau, shape (2, 2, len(tau))."""
    c, s = np.cos(tau / x), np.sin(tau / x)
    return np.array([[c, s], [-s, c]])


#: Largest relative asymmetry |W01 - W10| / max(1, max|W|) of the noise integral.
ASYMMETRY_TOL = 1e-8


def _asymmetry(grid: np.ndarray, w: np.ndarray) -> float:
    """Worst relative asymmetry of the noise integrals ``w`` (2, 2, m) at
    the nodes ``grid``.

    Raises :class:`IntegrationResolutionError` when a node (NaN included)
    misses ``ASYMMETRY_TOL``.
    """
    rel = np.abs(w[0, 1] - w[1, 0]) / np.maximum(1.0, np.max(np.abs(w), axis=(0, 1)))
    if not np.all(rel <= ASYMMETRY_TOL):
        i = int(np.argmax(~(rel <= ASYMMETRY_TOL)))
        raise IntegrationResolutionError(f"noise matrix asymmetry {rel[i]:.3e} exceeds "
                                         f"{ASYMMETRY_TOL:g} at tau={grid[i]:g}")
    return float(np.max(rel))


def _node_channels(x: float, tau: np.ndarray, big_gamma: np.ndarray,
                   wbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, N) at the nodes (tau, Gamma, Wbar): two (m, 2, 2) stacks,
    T = e^{-Gamma/2} R and N = 2 Wbar symmetrized."""
    t_mats = np.exp(-big_gamma / 2.0)[:, None, None] * np.moveaxis(_rotations(tau, x), -1, 0)
    n_mats = 2.0 * np.moveaxis(wbar, -1, 0)
    return t_mats, 0.5 * (n_mats + np.swapaxes(n_mats, -1, -2))


def qbm_channel(traj: Trajectory, i: int) -> GaussianChannel:
    """The one-mode channel (e^{-Gamma/2} R, 2 Wbar, 0) at the node
    ``traj.tau[i]``; a negative ``i`` counts back from the horizon.

    Raises :class:`IntegrationResolutionError` when that node's Wbar misses
    ``ASYMMETRY_TOL``.
    """
    tau, big_gamma, wbar = traj.tau[[i]], traj.gamma_capital[[i]], traj.wbar[..., [i]]
    _asymmetry(tau, wbar)
    t_mats, n_mats = _node_channels(traj.cfg.x, tau, big_gamma, wbar)
    return GaussianChannel(1, t_mats[0], n_mats[0], np.zeros(2))


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def _formula(x: float, tau: np.ndarray, big_gamma: np.ndarray, wbar: np.ndarray):
    """(I_c, N12, |T21| term, |T12 T22| term) of the damped-oscillation
    formula at the nodes (tau, Gamma, Wbar)."""
    n12 = 2.0 * wbar[0, 1]
    term1 = np.abs(np.exp(-big_gamma / 2.0) * np.sin(tau / x))
    term2 = 0.5 * np.abs(np.exp(-big_gamma) * np.sin(2.0 * tau / x))
    return term1 + term2 + np.abs(n12), n12, term1, term2


@dataclass(frozen=True)
class Trajectory:
    """Sampled imaginarity trajectory of the QBM channel: Gamma and the
    noise integral Wbar (shape (2, 2, m)) at the nodes ``tau``, in read-only
    arrays.  I_c, N12 and the two rotation terms are worked out from them
    by ``_formula`` where they are read."""

    cfg: QbmConfig
    tau: np.ndarray
    gamma_capital: np.ndarray
    wbar: np.ndarray
    #: Worst |generic I_c - formula I_c| over the grid (bounded by 1e-8).
    cross_check_error: float
    #: Worst relative asymmetry of Wbar over the grid (bounded by 1e-8).
    wbar_asymmetry: float

    def _columns(self, part=slice(None)) -> tuple[np.ndarray, ...]:
        return _formula(self.cfg.x, self.tau[part], self.gamma_capital[part],
                        self.wbar[..., part])

    ic = property(lambda self: self._columns()[0])
    n12 = property(lambda self: self._columns()[1])
    term_t21 = property(lambda self: self._columns()[2])
    term_t12t22 = property(lambda self: self._columns()[3])

    def window_mean(self, start: float, width: float) -> float:
        """Mean of I_c over the window [start, start + width]."""
        mask = (self.tau >= start - 1e-12) & (self.tau <= start + width + 1e-12)
        if not np.any(mask):
            raise ValueError("window does not intersect the trajectory grid")
        return float(np.mean(self._columns(mask)[0]))

    def write_csv(self, path):
        """Write a header and one row per grid point, every value as ``_fmt``
        formats it, ``_CSV_ROWS`` rows per write."""
        with open(path, "wb") as fh:
            fh.write(b"tau,Ic,Gamma,N12,term_T21,term_T12T22\n")
            for lo in range(0, len(self.tau), _CSV_ROWS):
                part = slice(lo, lo + _CSV_ROWS)
                ic, n12, term1, term2 = self._columns(part)
                fh.write(_csv_block(np.column_stack(
                    [self.tau[part], ic, self.gamma_capital[part], n12, term1, term2])))


def _fmt(v: float) -> str:
    return np.format_float_positional(
        v, precision=12, unique=False, fractional=False, trim="-"
    )


#: Rows per block of the CSV writer; 4096 raised a panel's peak RSS by 2 MB.
_CSV_ROWS = 1024
#: The scaled mantissa carries at most four roundings of relative 2**-53
#: (two table entries, two products), 4.45e-4 below 1e12; closer than this
#: to a rounding tie, a field is formatted by ``_fmt``.
_TIE_MARGIN = 5e-4
#: Lowest power of ten in the writer's table.
_POW10_LOW = -149


@cache
def _csv_tables():
    """The writer's tables, read-only, built at its first call rather than
    at import, so that start-up spends no time or memory on them:

    * 10**k for k in [-149, 168], each correctly rounded: two of them
      scale any finite double, subnormals included, to 12 digits without
      overflow;
    * the four ASCII digits of 0..9999 as one uint32 each, and how many of
      them are left once trailing zeros are trimmed;
    * for e = -1 (and below) to 11 (and above) and 1 to 12 kept digits,
      the offset of digit j from a field's first digit: one more past the
      point, and the separator slot's for a trimmed zero.
    """
    pow10 = np.array([float(f"1e{k}") for k in range(_POW10_LOW, 169)])
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint8)
    quads = np.empty((100, 100, 4), dtype=np.uint8)
    quads[..., :2], quads[..., 2:] = pairs.reshape(100, 1, 2), pairs.reshape(1, 100, 2)
    kept_in_quad = ((quads != ord("0")) * np.arange(1, 5, dtype=np.int8)).max(axis=-1)
    e, kept, j = np.arange(-1, 12)[:, None, None], np.arange(1, 13)[:, None], np.arange(12)
    separator = np.where(e < 0, 1 + kept, np.maximum(e + 1, kept) + (kept > e + 1))
    offsets = np.minimum(j + (j > e), separator).astype(np.int8)
    tables = (pow10, quads.view(np.uint32).ravel(), kept_in_quad.ravel(),
              offsets.reshape(-1, 12))
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, s: np.ndarray, pow10: np.ndarray) -> np.ndarray:
    # a * 10**s in two table products, each intermediate a normal double
    half = s // 2
    return a * pow10[half - _POW10_LOW] * pow10[s - half - _POW10_LOW]


def _csv_block(rows: np.ndarray) -> np.ndarray:
    """The CSV bytes of ``rows`` (shape (r, 6)) as a uint8 array, every
    field as ``_fmt`` writes it: 12 significant digits, positional, trailing
    zeros and a bare point trimmed.

    Each field's mantissa is rounded to 12 digits in numpy; fields within
    ``_TIE_MARGIN`` of a rounding tie, and non-finite ones, go through
    ``_fmt``.  The digits are scattered into a buffer prefilled with "0"
    at their offsets from the field's start; offsets past the field land
    on its separator slot, which is written last.
    """
    pow10, quad_chars, quad_kept, digit_offsets = _csv_tables()
    v = rows.ravel()
    a = np.abs(v)
    regular = (a > 0.0) & (a < np.inf)
    a = np.where(regular, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    m = _scaled(a, 11 - e, pow10)
    # log10 misses floor(log10 a) by one at most, and only beside a power of ten
    if np.any(off := (m >= 1e12) | (m < 1e11)):
        e[off] += np.where(m[off] >= 1e12, 1, -1)
        m[off] = _scaled(a[off], 11 - e[off], pow10)
    digits = np.rint(m)
    slow = np.flatnonzero((np.abs(m - np.floor(m) - 0.5) < _TIE_MARGIN) | ~np.isfinite(v))
    carry = digits >= 1e12  # rounded up to 10**12: one digit more
    digits[carry] = 1e11
    e += carry
    # zero, and the fallbacks until their text replaces it, read "0"
    regular[slow] = False
    digits *= regular
    e *= regular
    # 12 digits in three groups of four
    d = digits.astype(np.int64)
    top = d // 100000000
    rest = d - top * 100000000
    mid = rest // 10000
    groups = (top, mid, rest - mid * 10000)
    chars = np.stack([quad_chars[g] for g in groups], axis=1).view(np.uint8)
    # significant digits after trimming, at least one
    kept = np.where(groups[2] > 0, 8 + quad_kept[groups[2]],
                    np.where(groups[1] > 0, 4 + quad_kept[groups[1]],
                             np.maximum(quad_kept[groups[0]], 1)))
    sign = np.signbit(v)
    point = (e < 0) | (kept > e + 1)
    width = sign + np.where(e >= 0, np.maximum(e + 1, kept) + point, 1 - e + kept)
    texts = [_fmt(v[i]).encode() for i in slow]
    for i, text in zip(slow, texts):
        width[i] = len(text)
    sep = np.cumsum(width + 1) - 1
    start = sep - width
    buf = np.full(sep[-1] + 1, ord("0"), dtype=np.uint8)
    layout = (np.clip(e, -1, 11) + 1) * 12 + kept - 1
    first = start + sign + np.maximum(-e, 0)
    buf[first[:, None] + digit_offsets.take(layout, axis=0)] = chars
    buf[np.where(point, start + sign + np.maximum(e, 0) + 1, sep)] = ord(".")
    buf[np.where(sign, start, sep)] = ord("-")
    for i, text in zip(slow, texts):
        buf[start[i]:sep[i]] = np.frombuffer(text, dtype=np.uint8)
    buf[sep.reshape(-1, 6)] = np.frombuffer(b",,,,,\n", dtype=np.uint8)
    return buf


#: Largest allowed |generic I_c - formula I_c| at any grid point.
CROSS_CHECK_TOL = 1e-8


def _cross_check(x: float, tau: np.ndarray, big_gamma: np.ndarray, wbar: np.ndarray,
                 direct: np.ndarray) -> float:
    """Worst |generic I_c - direct| over the nodes (tau, Gamma, Wbar), one
    batched measure call.

    Raises :class:`FormulaInconsistencyError` when a channel matrix is
    non-finite or any point (NaN included) misses ``CROSS_CHECK_TOL``.
    """
    t_mats, n_mats = _node_channels(x, tau, big_gamma, wbar)
    finite = np.all(np.isfinite(t_mats), axis=(1, 2)) & np.all(np.isfinite(n_mats), axis=(1, 2))
    if not np.all(finite):
        raise FormulaInconsistencyError(
            f"non-finite channel matrices at tau={tau[int(np.argmin(finite))]:g}")
    generic = channel_measure_ic_stack(t_mats, n_mats, np.zeros((len(tau), 2)))
    error = np.abs(generic - direct)
    if not np.all(error <= CROSS_CHECK_TOL):
        i = int(np.argmax(~(error <= CROSS_CHECK_TOL)))
        raise FormulaInconsistencyError(f"generic measure and trajectory formula disagree "
                                        f"by {error[i]:.3e} at tau={tau[i]:g}")
    return float(np.max(error))


def imaginarity_trajectory(
    cfg: QbmConfig, horizon: float, step: float = DEFAULT_STEP
) -> Trajectory:
    """I_c of the QBM channel on the grid 0, step, ..., horizon, with
    built-in cross-check.

    The grid is walked once, ``_CHUNK`` intervals at a time.  Per chunk the
    closed-form coefficients are evaluated on the refined points, the
    fine-grid Gamma weights the co-rotating noise integrand R^T M R, and
    both running integrals carry their totals into the next chunk; only
    Gamma and Wbar at the nodes are kept, so T and N read one Gamma.  The
    noise integral is held relative to e^{ref}, and rescaled by
    e^{-(new ref - old ref)} when its reference moves, so it stays finite
    at every horizon.  Where the reference moves depends on Gamma alone,
    so the result equals that of one whole-grid pass bit for bit.

    Then every node of the chunk but the one it shares with the next is
    evaluated both through the generic channel measure on the emitted
    (T, N, d) matrices and through the specialized damped-oscillation formula

        |e^{-Gamma/2} sin(tau/x)| + (1/2)|e^{-Gamma} sin(2 tau/x)| + |N12|;

    the two must agree within ``CROSS_CHECK_TOL`` at every node, and Wbar
    must be symmetric within ``ASYMMETRY_TOL``.
    """
    grid = _make_grid(horizon, step)
    consts = _ei_constants(cfg)
    m, x = len(grid), cfg.x
    big_gamma, wbar = np.zeros(m), np.zeros((2, 2, m))
    fine_total, noise_total, ref = 0.0, np.zeros((2, 2)), 0.0
    error = asymmetry = 0.0
    nodes = slice(None, None, NOISE_REFINEMENT)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m - 1)
        if hi > lo:  # else the last node alone, solved by the chunk before or the origin
            fine = _refine_grid(grid[lo:hi + 1], NOISE_REFINEMENT)
            gamma_f, delta_f, pi_f = coefficients(cfg, fine, consts)
            run = _running_sum(fine_total, _simpson_parts(gamma_f, fine))
            big_gamma_f, fine_total = 2.0 * run, run[-1]
            g_n = big_gamma[lo:hi + 1] = big_gamma_f[nodes]
            rot = _rotations(fine, x)
            rot_n = rot[..., nodes]  # fine[nodes] is the grid exactly
            m_mat = np.array([[delta_f, -pi_f / 2.0], [-pi_f / 2.0, np.zeros_like(fine)]])
            # co-rotating integrand R^T M R weighted by e^{Gamma - ref}, its
            # running integral, damped and rotated back at the nodes; the
            # reference moves to the first node whose Gamma passes ref + _REBASE
            integrand = np.einsum("jia,jka,kla->ila", rot, m_mat, rot)
            start = 0
            while start < hi - lo:
                past = np.flatnonzero(g_n[start + 1:] > ref + _REBASE)
                end = start + 1 + past[0] if past.size else hi - lo
                seg = slice(NOISE_REFINEMENT * start, NOISE_REFINEMENT * end + 1)
                weighted = integrand[..., seg] * np.exp(big_gamma_f[seg] - ref)
                cum = _running_sum(noise_total, _simpson_parts(weighted, fine[seg]))
                at = slice(start, end + 1)
                wbar[..., lo:hi + 1][..., at] = np.einsum(
                    "ija,jka,lka->ila", rot_n[..., at],
                    cum[..., nodes] * np.exp(-(g_n[at] - ref)), rot_n[..., at])
                noise_total = cum[..., -1].copy()
                if past.size:
                    noise_total *= np.exp(-(g_n[end] - ref))
                    ref = g_n[end]
                start = end
            del rot, rot_n, m_mat, integrand, weighted, cum  # not held through the checks
        part = slice(lo, lo + _CHUNK)
        tau, g, w = grid[part], big_gamma[part], wbar[..., part]
        error = max(error, _cross_check(x, tau, g, w, _formula(x, tau, g, w)[0]))
        asymmetry = max(asymmetry, _asymmetry(tau, w))
    for array in (grid, big_gamma, wbar):
        array.flags.writeable = False
    return Trajectory(cfg, grid, big_gamma, wbar, error, asymmetry)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def steady_state_n12(cfg: QbmConfig) -> float:
    """Asymptotic N12 from the long-time limits of the coefficients.

    Setting the co-rotating noise build-up to steady state gives

        N12(inf) = -[Delta_inf * (2/x) + Pi_inf * 2 gamma_inf]
                   / ((2 gamma_inf)^2 + (2/x)^2).
    """
    probes = np.array([2000.0, 2000.0 + np.pi * cfg.x / 2, 2000.0 + np.pi * cfg.x])
    g_inf, d_inf, p_inf = (float(np.mean(c)) for c in coefficients(cfg, probes))
    two_over_x = 2.0 / cfg.x
    return -(d_inf * two_over_x + p_inf * 2.0 * g_inf) / (
        (2.0 * g_inf) ** 2 + two_over_x**2
    )
