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

The coefficient functions gamma, Delta, Pi are available in two
independent routes: adaptive quadrature of the defining double
integrals (with the bath-frequency integral reduced in closed form),
and closed-form expressions built from exponential/trigonometric
integrals at complex arguments.  The closed forms combine those
functions in conjugate pairs, so their imaginary residue is checked and
discarded.

Temperature enters through the thermal weight 2 P(omega) + 1:

* high-temperature regime: 2P+1 ~ 2 theta / u  (u = omega/omega_c);
* low-temperature regime:  2P+1 ~ 1 + 2 e^{-u/theta}, which shifts the
  effective cutoff to b = 1 + 1/theta in half of the terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import GaussianChannel
from .measures import channel_measure_ic_stack
from .specfun import QuadratureSpec, expint_ei, integrate_adaptive

#: Default trajectory grid step in units of tau.
DEFAULT_STEP = 0.01

#: Largest coupling: the closed forms are second order in alpha.
ALPHA_MAX = 1.0

#: Largest alpha**2 * theta, the scale of the high-temperature diffusion.
#: The absolute cross-check error grows with it: at alpha 0.03, x 0.5 it is
#: 2.2e-11 at theta 1e8 and 1.49e-8 (failing) at theta 1e12; at the bound it
#: stays below 6e-9 for x 0.5-0.9 and horizons up to 615.7 (alpha 1 at x 0.9
#: first meets the exp(Gamma) overflow of the noise integral near tau 607).
NOISE_SCALE_MAX = 1e5

#: Largest exponent of the closed forms: exp(2/x) at high T and exp(b/x),
#: b = 1 + 1/theta, at low T overflow near 709.8.  At alpha 0.03, x 0.5 and
#: 0.9 and horizons 60 and 615.7, b/x = 705 passes the cross-check (error
#: <= 4.4e-16) and b/x = 709 fails with a non-finite Delta.
LOW_T_EXPONENT_MAX = 700.0


class ClosedFormError(RuntimeError):
    """A closed-form coefficient produced a non-finite value or an excessive
    imaginary residue, signalling overflow or a branch or transcription fault."""


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
    quad   -- quadrature budget for the integral-route oracles
    """

    alpha: float
    x: float
    theta: float
    regime: str = "high"
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

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
    scale = np.maximum(1.0, np.abs(values.real))
    residue = np.abs(values.imag) / scale
    worst = float(np.max(residue)) if residue.size else 0.0
    if worst > 1e-8:
        raise ClosedFormError(
            f"{name}: imaginary residue {worst:.3e} exceeds 1e-8 relative"
        )
    return values.real


def _ei_pairs(tau: np.ndarray, x: float, b: float = 1.0):
    """Ei at the four recurring arguments (b +/- i tau)/x, (-b +/- i tau)/x.

    Only the +i tau batches are evaluated; Ei(conj z) == conj(Ei(z))
    gives the -i tau ones.
    """
    e_plus = np.asarray(expint_ei((b + 1j * tau) / x))
    f_plus = np.asarray(expint_ei((-b + 1j * tau) / x))
    return e_plus, np.conj(e_plus), f_plus, np.conj(f_plus)


def _zero_at_origin(tau: np.ndarray, values: np.ndarray) -> np.ndarray:
    # At tau = 0 the (-1 +/- i tau)/x arguments collapse onto the branch
    # cut and the pair of +/- i pi jumps that cancels the constant 2 pi
    # term degenerates; the tau -> 0+ limit of every coefficient is 0.
    return np.where(tau == 0.0, 0.0, values)


def _delta_pi_high(cfg: QbmConfig, pairs):
    x, a2, theta = cfg.x, cfg.alpha**2, cfg.theta
    e_p, e_m, f_p, f_m = pairs
    pref = a2 * theta * np.exp(-1.0 / x) / 2.0
    b1 = 1j * (e_m - e_p)
    b2 = 2.0 * np.pi + 1j * f_p - 1j * f_m
    delta = pref * (b1 + np.exp(2.0 / x) * b2)
    ei_pos = expint_ei(1.0 / x)
    ei_neg = expint_ei(-1.0 / x)
    c1 = -e_m - e_p + 2.0 * ei_pos
    c2 = -2.0 * ei_neg + f_p + f_m
    pi_ = pref * (c1 + np.exp(2.0 / x) * c2)
    return delta, pi_


def _low_t_bath_terms(cfg: QbmConfig, t: np.ndarray, b: float, weight: float, pairs):
    """(Delta, Pi) of one bath copy with cutoff b and thermal weight ``weight``,
    from the ``_ei_pairs(t, x, b)`` batches.

    The low-T weight 1 + 2 e^{-u/theta} makes the coefficients the sum of
    the copy (b, weight) = (1, 1) and the cutoff-shifted copy
    (1 + 1/theta, 2).
    """
    x, a2 = cfg.x, cfg.alpha**2
    g, g_c, h, h_c = pairs
    boundary = t / (b * b + t * t)
    delta = weight * a2 * (
        np.cos(t / x) * boundary
        + (1.0 / (4j * x))
        * (
            np.exp(-b / x) * (g - g_c)
            + np.exp(b / x) * (h - h_c - 2j * np.pi)
        )
    )
    ei_b = expint_ei(b / x)
    ei_mb = expint_ei(-b / x)
    pi_ = weight * a2 * (
        np.sin(t / x) * boundary
        - (1.0 / (4.0 * x))
        * (
            np.exp(-b / x) * (g + g_c - 2.0 * ei_b)
            + np.exp(b / x) * (h + h_c - 2.0 * ei_mb)
        )
    )
    return delta, pi_


def _delta_pi_low(cfg: QbmConfig, t: np.ndarray, pairs):
    b = cfg.cutoff_shift
    delta_1, pi_1 = _low_t_bath_terms(cfg, t, 1.0, 1.0, pairs)
    delta_b, pi_b = _low_t_bath_terms(cfg, t, b, 2.0, _ei_pairs(t, cfg.x, b))
    return delta_1 + delta_b, pi_1 + pi_b


def _coefficients(cfg: QbmConfig, t: np.ndarray):
    """(gamma, Delta, Pi) on the 1-d array ``t``, closed form.

    The two ``_ei_pairs`` batches (and, at low temperature, the two
    cutoff-shifted ones) are evaluated once and shared by all three
    coefficients; each coefficient's imaginary residue is checked.
    """
    x, a2 = cfg.x, cfg.alpha**2
    pairs = _ei_pairs(t, x)
    e_p, e_m, f_p, f_m = pairs
    gamma = (a2 / (4.0 * x)) * (
        np.exp(-1.0 / x) * 1j * (e_m - e_p)
        + np.exp(1.0 / x) * (2.0 * np.pi + 1j * f_p - 1j * f_m)
        - 4.0 * x * np.sin(t / x) / (1.0 + t * t)
    )
    if cfg.regime == "high":
        delta, pi_ = _delta_pi_high(cfg, pairs)
    else:
        delta, pi_ = _delta_pi_low(cfg, t, pairs)
    return tuple(
        _zero_at_origin(t, _real_checked(values, name))
        for values, name in ((gamma, "gamma"), (delta, "Delta"), (pi_, "Pi"))
    )


def _coefficient_view(cfg: QbmConfig, tau, index: int):
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    out = _coefficients(cfg, t)[index]
    return out if np.ndim(tau) else float(out[0])


def coeff_gamma_closed(cfg: QbmConfig, tau):
    """Damping coefficient gamma(tau), closed form."""
    return _coefficient_view(cfg, tau, 0)


def coeff_delta_closed(cfg: QbmConfig, tau):
    """Direct diffusion coefficient Delta(tau), regime-consistent closed form."""
    return _coefficient_view(cfg, tau, 1)


def coeff_pi_closed(cfg: QbmConfig, tau):
    """Anomalous diffusion coefficient Pi(tau), regime-consistent closed form."""
    return _coefficient_view(cfg, tau, 2)


# ---------------------------------------------------------------------------
# quadrature-route coefficients (oracles)
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


def coeff_gamma_quadrature(cfg: QbmConfig, tau: float) -> float:
    """gamma(tau) by adaptive quadrature of the defining integral."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return 0.0
    a2, x = cfg.alpha**2, cfg.x
    return a2 * integrate_adaptive(
        lambda s: np.sin(s / x) * bath_sin_moment(s), 0.0, tau, cfg.quad
    )


def coeff_delta_quadrature(cfg: QbmConfig, tau: float) -> float:
    """Delta(tau) by adaptive quadrature with the regime's thermal weight."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return 0.0
    a2, x = cfg.alpha**2, cfg.x
    return a2 * integrate_adaptive(
        lambda s: np.cos(s / x) * bath_cos_moment(cfg, s), 0.0, tau, cfg.quad
    )


def coeff_pi_quadrature(cfg: QbmConfig, tau: float) -> float:
    """Pi(tau) by adaptive quadrature with the regime's thermal weight."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return 0.0
    a2, x = cfg.alpha**2, cfg.x
    return a2 * integrate_adaptive(
        lambda s: np.sin(s / x) * bath_cos_moment(cfg, s), 0.0, tau, cfg.quad
    )


# ---------------------------------------------------------------------------
# accumulated damping and noise
# ---------------------------------------------------------------------------

@dataclass
class GammaAccumulator:
    """Gamma(tau) = 2 * integral of gamma on a fixed grid, with caches.

    Coefficient evaluations are cached on the grid (they are the
    expensive part); values between nodes are linearly interpolated.
    ``_fine`` holds (refined grid, gamma, Delta, Pi, node indices) on the
    ``NOISE_REFINEMENT``-fold refined grid, shared by Gamma and the noise
    integral, which fills ``_wbar``.
    """

    cfg: QbmConfig
    grid: np.ndarray
    values: np.ndarray
    _fine: tuple | None = None
    _wbar: np.ndarray | None = None

    def value_at(self, tau: float) -> float:
        self._check_covered(tau)
        return float(np.interp(tau, self.grid, self.values))

    def _check_covered(self, tau: float):
        if tau < 0 or tau > self.grid[-1] + 1e-12:
            raise ValueError(f"tau={tau} outside accumulator range [0, {self.grid[-1]}]")


def _make_grid(horizon: float, step: float) -> np.ndarray:
    if not (0 < horizon < np.inf and 0 < step < np.inf):
        raise ValueError("horizon and step must be positive and finite")
    try:
        grid = np.arange(0.0, horizon + 0.5 * step, step)
    except ValueError as exc:  # more points than an array can index
        raise ValueError(
            f"step {step:g} is too small for horizon {horizon:g}: {exc}"
        ) from None
    if grid[-1] < horizon - 1e-12:
        grid = np.append(grid, horizon)
    return grid


#: Internal subdivision of each grid interval for the noise integral.
#: The Simpson error of the first panel would otherwise leave a spurious
#: O(step^4) negativity in the physicality form at the first node.
NOISE_REFINEMENT = 4


def _refine_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    base = grid[:-1]
    widths = np.diff(grid)
    offsets = np.arange(factor) / factor
    fine = (base[:, None] + widths[:, None] * offsets[None, :]).ravel()
    return np.append(fine, grid[-1])


def _fine_coefficients(cfg: QbmConfig, grid: np.ndarray) -> tuple:
    """(fine grid, gamma, Delta, Pi, node indices) on the refined grid.

    The refined grid holds every node of ``grid`` exactly, so
    ``gamma[nodes]`` equals the coefficient evaluated on ``grid`` itself.
    """
    fine = _refine_grid(grid, NOISE_REFINEMENT)
    nodes = np.append(np.arange(len(grid) - 1) * NOISE_REFINEMENT, len(fine) - 1)
    return (fine, *_coefficients(cfg, fine), nodes)


def _simpson_first_halves(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson integral over [x_i, x_{i+1}] of the parabola through
    x_i, x_{i+1}, x_{i+2}, for every i (unequal widths ``dx``).

    Reversing ``y`` and ``dx`` gives the integrals over the second halves.
    """
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    f1, f2, f3 = y[..., :-2], y[..., 1:-1], y[..., 2:]
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` over the 1-d grid ``x`` along
    the last axis, starting from 0.

    The arithmetic is that of ``scipy.integrate.cumulative_simpson(y,
    x=x, initial=0.0)`` on unequal intervals, so the results are
    bit-identical: each interval takes its first-half integral from the
    panel to its right and, for odd intervals and the last one, its
    second-half integral from the panel to its left.  Fewer than three
    points fall back to the trapezoid rule, as SciPy does.
    """
    dx = np.diff(x)
    if y.shape[-1] < 3:
        parts = dx * (y[..., 1:] + y[..., :-1]) / 2.0
    else:
        h1 = _simpson_first_halves(y, dx)
        h2 = _simpson_first_halves(y[..., ::-1], dx[::-1])[..., ::-1]
        parts = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
        parts[..., :-1:2] = h1[..., ::2]
        parts[..., 1::2] = h2[..., ::2]
        parts[..., -1] = h2[..., -1]
    out = np.zeros(y.shape)
    np.cumsum(parts, axis=-1, out=out[..., 1:])
    return out


def gamma_capital(
    cfg: QbmConfig, horizon: float, step: float = DEFAULT_STEP, gamma_fn=None
) -> GammaAccumulator:
    """Cumulative damping exponent Gamma on a fresh grid.

    ``gamma_fn(cfg, taus)`` may replace the closed-form coefficient
    (used by synthetic probes); integration is cumulative Simpson, exact
    for polynomials up to degree 2 and refinement-stable.  Without
    ``gamma_fn`` the closed-form coefficients are evaluated once, on the
    refined grid of the noise integral, and Gamma integrates their
    values at the grid nodes.
    """
    grid = _make_grid(horizon, step)
    fine = None
    if gamma_fn is None:
        fine = _fine_coefficients(cfg, grid)
        _, gamma_f, _, _, nodes = fine
        g = gamma_f[nodes]
    else:
        g = np.asarray(gamma_fn(cfg, grid), dtype=float)
    values = 2.0 * _cumulative_simpson(g, grid)
    return GammaAccumulator(cfg=cfg, grid=grid, values=values, _fine=fine)


def rotation_r(cfg: QbmConfig, tau: float) -> np.ndarray:
    """Free rotation R(tau) by angle tau/x (orthogonal, det 1)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    c, s = np.cos(tau / cfg.x), np.sin(tau / cfg.x)
    return np.array([[c, s], [-s, c]])


def _ensure_noise_cache(acc: GammaAccumulator):
    if acc._wbar is not None:
        return
    cfg = acc.cfg
    if acc._fine is None:
        acc._fine = _fine_coefficients(cfg, acc.grid)
    fine, gamma_f, delta_f, pi_f, nodes = acc._fine
    big_gamma_f = 2.0 * _cumulative_simpson(gamma_f, fine)
    c, s = np.cos(fine / cfg.x), np.sin(fine / cfg.x)
    zero = np.zeros_like(fine)
    rot = np.array([[c, s], [-s, c]])  # (2, 2, m)
    m_mat = np.array([[delta_f, -pi_f / 2.0], [-pi_f / 2.0, zero]])
    # co-rotating integrand R^T M R, damped accumulation, rotated back
    integrand = np.einsum("jia,jka,kla->ila", rot, m_mat, rot) * np.exp(big_gamma_f)
    cum = _cumulative_simpson(integrand, fine)
    wbar_f = np.einsum("ija,jka,lka->ila", rot, cum * np.exp(-big_gamma_f), rot)
    acc._wbar = wbar_f[:, :, nodes]


def noise_wbar(cfg: QbmConfig, tau: float, acc: GammaAccumulator) -> np.ndarray:
    """The noise integral Wbar(tau) on the accumulator grid."""
    acc._check_covered(tau)
    _ensure_noise_cache(acc)
    w = np.array(
        [
            [np.interp(tau, acc.grid, acc._wbar[i, j]) for j in range(2)]
            for i in range(2)
        ]
    )
    asym = np.max(np.abs(w - w.T)) / max(1.0, np.max(np.abs(w)))
    if asym > 1e-8:
        raise IntegrationResolutionError(
            f"noise matrix asymmetry {asym:.3e} exceeds 1e-8"
        )
    return 0.5 * (w + w.T)


def qbm_channel(cfg: QbmConfig, tau: float, acc: GammaAccumulator) -> GaussianChannel:
    """The one-mode channel (e^{-Gamma/2} R, 2 Wbar, 0) at time tau."""
    big_gamma = acc.value_at(tau)
    t_mat = np.exp(-big_gamma / 2.0) * rotation_r(cfg, tau)
    n_mat = 2.0 * noise_wbar(cfg, tau, acc)
    return GaussianChannel(1, t_mat, n_mat, np.zeros(2))


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled imaginarity trajectory of the QBM channel."""

    cfg: QbmConfig
    tau: np.ndarray
    ic: np.ndarray
    gamma_capital: np.ndarray
    n12: np.ndarray
    term_t21: np.ndarray
    term_t12t22: np.ndarray
    #: Worst |generic I_c - formula I_c| over the grid (bounded by 1e-8).
    cross_check_error: float

    def window_mean(self, start: float, width: float) -> float:
        """Mean of I_c over the window [start, start + width]."""
        mask = (self.tau >= start - 1e-12) & (self.tau <= start + width + 1e-12)
        if not np.any(mask):
            raise ValueError("window does not intersect the trajectory grid")
        return float(np.mean(self.ic[mask]))

    def write_csv(self, path):
        rows = np.column_stack([
            self.tau, self.ic, self.gamma_capital, self.n12,
            self.term_t21, self.term_t12t22,
        ]).tolist()
        with open(path, "w", newline="\n") as fh:
            fh.write("tau,Ic,Gamma,N12,term_T21,term_T12T22\n")
            fh.writelines(_csv_lines(rows))


_CSV_ROW = ",".join(["%.12g"] * 6) + "\n"


def _csv_lines(rows):
    """One CSV line per 6-value row: 12 significant digits, plain decimal.

    ``%.12g`` matches ``_fmt`` digit for digit wherever it picks
    positional notation; a line in which it picked an exponent is
    formatted again value by value.
    """
    for row in rows:
        line = _CSV_ROW % tuple(row)
        yield line if "e" not in line else ",".join(map(_fmt, row)) + "\n"


def _fmt(v: float) -> str:
    return np.format_float_positional(
        v, precision=12, unique=False, fractional=False, trim="-"
    )


#: Largest allowed |generic I_c - formula I_c| at any grid point.
CROSS_CHECK_TOL = 1e-8


def _cross_check(cfg: QbmConfig, acc: GammaAccumulator, direct: np.ndarray) -> float:
    """Worst |generic I_c - direct| over the grid, one batched measure call.

    Raises :class:`FormulaInconsistencyError` when a channel matrix is
    non-finite or any point (NaN included) misses ``CROSS_CHECK_TOL``.
    """
    grid, x = acc.grid, cfg.x
    half = np.exp(-acc.values / 2.0)
    cos_, sin_ = np.cos(grid / x), np.sin(grid / x)
    t_mats = half[:, None, None] * np.stack(
        [np.stack([cos_, sin_], axis=-1), np.stack([-sin_, cos_], axis=-1)], axis=-2
    )
    n_mats = 2.0 * np.moveaxis(acc._wbar, -1, 0)
    n_mats = 0.5 * (n_mats + np.swapaxes(n_mats, -1, -2))
    finite = np.all(np.isfinite(t_mats), axis=(1, 2)) & np.all(np.isfinite(n_mats), axis=(1, 2))
    if not np.all(finite):
        tau = grid[int(np.argmin(finite))]
        raise FormulaInconsistencyError(f"non-finite channel matrices at tau={tau:g}")
    generic = channel_measure_ic_stack(t_mats, n_mats, np.zeros((len(grid), 2)))
    error = np.abs(generic - direct)
    if not np.all(error <= CROSS_CHECK_TOL):
        i = int(np.argmax(~(error <= CROSS_CHECK_TOL)))
        raise FormulaInconsistencyError(
            f"generic measure and trajectory formula disagree by {error[i]:.3e} "
            f"at tau={grid[i]:g}"
        )
    return float(np.max(error))


def imaginarity_trajectory(
    cfg: QbmConfig, horizon: float, step: float = DEFAULT_STEP
) -> Trajectory:
    """I_c of the QBM channel on a tau-grid, with built-in cross-check.

    Every grid point is evaluated both through the generic channel
    measure on the emitted (T, N, d) matrices and through the
    specialized damped-oscillation formula

        |e^{-Gamma/2} sin(tau/x)| + (1/2)|e^{-Gamma} sin(2 tau/x)| + |N12|;

    the two must agree within ``CROSS_CHECK_TOL`` at every point.
    """
    acc = gamma_capital(cfg, horizon, step)
    _ensure_noise_cache(acc)
    grid, big_gamma = acc.grid, acc.values
    x = cfg.x
    n12 = 2.0 * acc._wbar[0, 1]
    term1 = np.abs(np.exp(-big_gamma / 2.0) * np.sin(grid / x))
    term2 = 0.5 * np.abs(np.exp(-big_gamma) * np.sin(2.0 * grid / x))
    direct = term1 + term2 + np.abs(n12)
    return Trajectory(
        cfg=cfg,
        tau=grid,
        ic=direct,
        gamma_capital=big_gamma,
        n12=n12,
        term_t21=term1,
        term_t12t22=term2,
        cross_check_error=_cross_check(cfg, acc, direct),
    )


# ---------------------------------------------------------------------------
# asymptotics and oracles
# ---------------------------------------------------------------------------

def n12_scalar_oracle(acc: GammaAccumulator) -> np.ndarray:
    """N12 on the grid via the scalar co-rotating integral.

    Independent algebraic route (trig-expanded cumulative integrals)
    used to cross-check the matrix Wbar path:

      N12(tau) = e^{-Gamma} * integral of
                 e^{Gamma}[Delta sin(2(s-tau)/x) - Pi cos(2(s-tau)/x)] ds.
    """
    _ensure_noise_cache(acc)
    fine, gamma, delta, pi_, nodes = acc._fine
    big_gamma = 2.0 * _cumulative_simpson(gamma, fine)
    x = acc.cfg.x
    weight = np.exp(big_gamma)
    sin2, cos2 = np.sin(2.0 * fine / x), np.cos(2.0 * fine / x)
    a1 = _cumulative_simpson(weight * delta * sin2, fine)
    a2 = _cumulative_simpson(weight * delta * cos2, fine)
    b1 = _cumulative_simpson(weight * pi_ * sin2, fine)
    b2 = _cumulative_simpson(weight * pi_ * cos2, fine)
    n12 = np.exp(-big_gamma) * (cos2 * (a1 - b2) - sin2 * (a2 + b1))
    return n12[nodes]


def steady_state_n12(cfg: QbmConfig) -> float:
    """Asymptotic N12 from the long-time limits of the coefficients.

    Setting the co-rotating noise build-up to steady state gives

        N12(inf) = -[Delta_inf * (2/x) + Pi_inf * 2 gamma_inf]
                   / ((2 gamma_inf)^2 + (2/x)^2).
    """
    probes = np.array([2000.0, 2000.0 + np.pi * cfg.x / 2, 2000.0 + np.pi * cfg.x])
    g_inf = float(np.mean(coeff_gamma_closed(cfg, probes)))
    d_inf = float(np.mean(coeff_delta_closed(cfg, probes)))
    p_inf = float(np.mean(coeff_pi_closed(cfg, probes)))
    two_over_x = 2.0 / cfg.x
    return -(d_inf * two_over_x + p_inf * 2.0 * g_inf) / (
        (2.0 * g_inf) ** 2 + two_over_x**2
    )
