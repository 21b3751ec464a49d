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

from dataclasses import dataclass, field, replace

import numpy as np

from .gaussian import GaussianChannel
from .measures import channel_measure_ic_stack
from .specfun import QuadratureSpec, expint_e1, expint_ei, integrate_adaptive

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
        raise ClosedFormError(f"{name}: imaginary residue {worst:.3e} exceeds 1e-8 relative")
    return values.real


def _ei_pairs(tau: np.ndarray, x: float, b: float = 1.0):
    """Ei((b +/- i tau)/x) and k = E1((b - i tau)/x), from two batches.

    Ei(conj z) == conj(Ei(z)) gives the -i tau value.  The other pair is
    Ei((-b +/- i tau)/x) = -k (conjugated) +/- i pi for tau > 0, so the
    closed forms read Re k and Im k: Im Ei((-b + i tau)/x) is pi minus a
    part of size e^{-b/x}, which pi + Im would lose at small x.
    """
    e_plus = np.asarray(expint_ei((b + 1j * tau) / x))
    return e_plus, np.conj(e_plus), np.asarray(expint_e1((b - 1j * tau) / x))


def _zero_at_origin(tau: np.ndarray, values: np.ndarray) -> np.ndarray:
    # At tau = 0 every closed form is a difference of equal terms; the
    # tau -> 0+ limit of every coefficient is 0.
    return np.where(tau == 0.0, 0.0, values)


def _ei_constants(cfg: QbmConfig) -> tuple:
    """(Ei(b/x), Ei(-b/x)) of the Pi closed forms for b = 1 and, at low
    temperature, b = 1 + 1/theta: evaluated once per trajectory."""
    cutoffs = (1.0,) if cfg.regime == "high" else (1.0, cfg.cutoff_shift)
    return tuple((expint_ei(b / cfg.x), expint_ei(-b / cfg.x)) for b in cutoffs)


def _delta_pi_high(cfg: QbmConfig, pairs, scalars):
    x, a2, theta = cfg.x, cfg.alpha**2, cfg.theta
    e_p, e_m, k = pairs
    pref = a2 * theta * np.exp(-1.0 / x) / 2.0
    b1 = 1j * (e_m - e_p)
    b2 = 2.0 * k.imag
    delta = pref * (b1 + np.exp(2.0 / x) * b2)
    ei_pos, ei_neg = scalars
    c1 = -e_m - e_p + 2.0 * ei_pos
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
    g, g_c, k = pairs
    ei_b, ei_mb = scalars
    boundary = t / (b * b + t * t)
    delta = weight * a2 * (np.cos(t / x) * boundary + (1.0 / (4j * x)) * (
        np.exp(-b / x) * (g - g_c) - np.exp(b / x) * 2j * k.imag))
    pi_ = weight * a2 * (np.sin(t / x) * boundary - (1.0 / (4.0 * x)) * (
        np.exp(-b / x) * (g + g_c - 2.0 * ei_b) - np.exp(b / x) * (2.0 * k.real + 2.0 * ei_mb)))
    return delta, pi_


def _delta_pi_low(cfg: QbmConfig, t: np.ndarray, pairs, consts):
    b = cfg.cutoff_shift
    delta_1, pi_1 = _low_t_bath_terms(cfg, t, 1.0, 1.0, pairs, consts[0])
    delta_b, pi_b = _low_t_bath_terms(cfg, t, b, 2.0, _ei_pairs(t, cfg.x, b), consts[1])
    return delta_1 + delta_b, pi_1 + pi_b


def _coefficients(cfg: QbmConfig, t: np.ndarray, consts: tuple | None = None):
    """(gamma, Delta, Pi) on the 1-d array ``t``, closed form.

    The two ``_ei_pairs`` batches (and, at low temperature, the two
    cutoff-shifted ones) are evaluated once and shared by all three
    coefficients; each coefficient's imaginary residue is checked.
    ``consts`` is ``_ei_constants(cfg)``, evaluated here when omitted.
    """
    x, a2 = cfg.x, cfg.alpha**2
    consts = consts or _ei_constants(cfg)
    pairs = _ei_pairs(t, x)
    e_p, e_m, k = pairs
    gamma = (a2 / (4.0 * x)) * (
        np.exp(-1.0 / x) * 1j * (e_m - e_p)
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


def _quadrature(cfg: QbmConfig, tau: float, integrand) -> float:
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return 0.0 if tau == 0 else cfg.alpha**2 * integrate_adaptive(integrand, 0.0, tau, cfg.quad)


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
# the solution: Gamma and the noise integral at the grid nodes
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

#: Grid intervals per chunk of the solver, the trajectory and the CSV
#: writer.  Even, so that every chunk starts at an even node and no Simpson
#: panel (2j, 2j+1, 2j+2) straddles a seam.
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


def _simpson_first_halves(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson integral over [x_i, x_{i+1}] of the parabola through
    x_i, x_{i+1}, x_{i+2}, for every i (unequal widths ``dx``).

    Reversing ``y`` and ``dx`` gives the integrals over the second halves.
    """
    x21, x32 = dx[:-1], dx[1:]
    x21_x31, x21_x32 = x21 / (x21 + x32), x21 / x32
    ratio = x21_x31 * x21_x32
    f1, f2, f3 = y[..., :-2], y[..., 1:-1], y[..., 2:]
    return x21 / 6 * ((3 - x21_x31) * f1 + (3 + ratio + x21_x31) * f2 + -ratio * f3)


def _simpson_parts(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Simpson integral of ``y`` over each interval of the 1-d grid ``x``,
    along the last axis.

    The arithmetic is that of ``scipy.integrate.cumulative_simpson`` on
    unequal intervals: each interval takes its first-half integral from
    the panel to its right and, for odd intervals and the last one, its
    second-half integral from the panel to its left.  A part reads only its
    own panel, so the parts of the points 2j..k equal those of the whole
    grid.  Fewer than three points fall back to the trapezoid rule, as
    SciPy does.
    """
    dx = np.diff(x)
    if y.shape[-1] < 3:
        return dx * (y[..., 1:] + y[..., :-1]) / 2.0
    h1 = _simpson_first_halves(y, dx)
    h2 = _simpson_first_halves(y[..., ::-1], dx[::-1])[..., ::-1]
    parts = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    parts[..., :-1:2] = h1[..., ::2]
    parts[..., 1::2] = h2[..., ::2]
    parts[..., -1] = h2[..., -1]
    return parts


def _running_sum(start, parts: np.ndarray) -> np.ndarray:
    """``start`` followed by its running sums with ``parts`` (last axis).

    np.cumsum adds in sequence, so seeding it with the total carried from
    the previous chunk continues the whole-grid sum bit for bit.
    """
    out = np.concatenate([np.expand_dims(start, -1), parts], axis=-1)
    return np.cumsum(out, axis=-1, out=out)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` over the 1-d grid ``x`` along
    the last axis, starting from 0: bit-identical to
    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)``."""
    return _running_sum(np.zeros(y.shape[:-1]), _simpson_parts(y, x))


def _rotations(tau: np.ndarray, x: float) -> np.ndarray:
    """R(tau) for every tau, shape (2, 2, len(tau))."""
    c, s = np.cos(tau / x), np.sin(tau / x)
    return np.array([[c, s], [-s, c]])


@dataclass(frozen=True)
class QbmSolution:
    """Gamma (Simpson on ``grid`` of gamma's node values) and the noise
    integral Wbar (shape (2, 2, m), integrated on the refined grid) of the
    QBM channel at the nodes of a tau-grid, in read-only arrays."""

    cfg: QbmConfig
    grid: np.ndarray
    gamma_capital: np.ndarray
    wbar: np.ndarray

    def _nodes(self, part: slice) -> "QbmSolution":
        return replace(self, grid=self.grid[part], gamma_capital=self.gamma_capital[part],
                       wbar=self.wbar[..., part])


def solve_qbm(cfg: QbmConfig, horizon: float, step: float = DEFAULT_STEP) -> QbmSolution:
    """Gamma and Wbar on the grid 0, step, ..., horizon.

    The grid is walked ``_CHUNK`` intervals at a time.  Per chunk the
    closed-form coefficients are evaluated on the refined points, the
    fine-grid Gamma weights the co-rotating noise integrand R^T M R, and
    both running integrals carry their totals into the next chunk; only
    gamma, Gamma and Wbar at the nodes are kept.  Gamma at the nodes
    integrates gamma's node values, re-reading the two nodes before each
    seam.  The noise integral is held relative to e^{ref}, and rescaled by
    e^{-(new ref - old ref)} when its reference moves, so it stays finite
    at every horizon.  Where the reference moves depends on Gamma alone,
    so the result equals that of one whole-grid pass bit for bit.
    """
    grid = _make_grid(horizon, step)
    consts = _ei_constants(cfg)
    m, x = len(grid), cfg.x
    gamma_n, big_gamma, wbar = np.empty(m), np.empty(m), np.empty((2, 2, m))
    node_total, fine_total, noise_total, ref = 0.0, 0.0, np.zeros((2, 2)), 0.0
    nodes = slice(None, None, NOISE_REFINEMENT)
    for lo in range(0, m - 1, _CHUNK):
        hi = min(lo + _CHUNK, m - 1)
        fine = _refine_grid(grid[lo:hi + 1], NOISE_REFINEMENT)
        gamma_f, delta_f, pi_f = _coefficients(cfg, fine, consts)
        gamma_n[lo:hi + 1] = gamma_f[nodes]
        first = max(lo - 2, 0)
        run = _running_sum(node_total, _simpson_parts(
            gamma_n[first:hi + 1], grid[first:hi + 1])[lo - first:])
        big_gamma[lo:hi + 1], node_total = 2.0 * run, run[-1]
        run = _running_sum(fine_total, _simpson_parts(gamma_f, fine))
        big_gamma_f, fine_total = 2.0 * run, run[-1]
        rot, rot_n = _rotations(fine, x), _rotations(fine[nodes], x)
        m_mat = np.array([[delta_f, -pi_f / 2.0], [-pi_f / 2.0, np.zeros_like(fine)]])
        # co-rotating integrand R^T M R weighted by e^{Gamma - ref}, its
        # running integral, damped and rotated back at the nodes; the
        # reference moves to the first node whose Gamma passes ref + _REBASE
        integrand = np.einsum("jia,jka,kla->ila", rot, m_mat, rot)
        g_n, start = big_gamma_f[nodes], 0
        while start < hi - lo:
            past = np.flatnonzero(g_n[start + 1:] > ref + _REBASE)
            end = start + 1 + past[0] if past.size else hi - lo
            seg = slice(NOISE_REFINEMENT * start, NOISE_REFINEMENT * end + 1)
            weighted = integrand[..., seg] * np.exp(big_gamma_f[seg] - ref)
            cum = _running_sum(noise_total, _simpson_parts(weighted, fine[seg]))
            at = slice(start, end + 1)
            wbar[..., lo:hi + 1][..., at] = np.einsum("ija,jka,lka->ila", rot_n[..., at],
                                                      cum[..., nodes] * np.exp(-(g_n[at] - ref)),
                                                      rot_n[..., at])
            noise_total = cum[..., -1].copy()
            if past.size:
                noise_total *= np.exp(-(g_n[end] - ref))
                ref = g_n[end]
            start = end
    for array in (grid, big_gamma, wbar):
        array.flags.writeable = False
    return QbmSolution(cfg=cfg, grid=grid, gamma_capital=big_gamma, wbar=wbar)


def rotation_r(cfg: QbmConfig, tau: float) -> np.ndarray:
    """Free rotation R(tau) by angle tau/x (orthogonal, det 1)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return _rotations(tau, cfg.x)


#: Largest relative asymmetry |W01 - W10| / max(1, max|W|) of the noise integral.
ASYMMETRY_TOL = 1e-8


def _asymmetry(sol: QbmSolution) -> float:
    """Worst relative asymmetry of Wbar over the solution's nodes.

    Raises :class:`IntegrationResolutionError` when a node (NaN included)
    misses ``ASYMMETRY_TOL``.
    """
    w = sol.wbar
    rel = np.abs(w[0, 1] - w[1, 0]) / np.maximum(1.0, np.max(np.abs(w), axis=(0, 1)))
    if not np.all(rel <= ASYMMETRY_TOL):
        i = int(np.argmax(~(rel <= ASYMMETRY_TOL)))
        raise IntegrationResolutionError(f"noise matrix asymmetry {rel[i]:.3e} exceeds "
                                         f"{ASYMMETRY_TOL:g} at tau={sol.grid[i]:g}")
    return float(np.max(rel))


def noise_wbar(sol: QbmSolution, tau: float) -> np.ndarray:
    """The noise integral Wbar(tau), interpolated between the nodes and
    symmetrized once its asymmetry is checked."""
    if tau < 0 or tau > sol.grid[-1] + 1e-12:
        raise ValueError(f"tau={tau} outside the solution's range [0, {sol.grid[-1]}]")
    w = np.array([[np.interp(tau, sol.grid, sol.wbar[i, j]) for j in range(2)]
                  for i in range(2)])
    _asymmetry(replace(sol, grid=np.array([tau]), wbar=w[..., None]))
    return 0.5 * (w + w.T)


def qbm_channel(sol: QbmSolution, tau: float) -> GaussianChannel:
    """The one-mode channel (e^{-Gamma/2} R, 2 Wbar, 0) at time tau."""
    n_mat = 2.0 * noise_wbar(sol, tau)
    big_gamma = float(np.interp(tau, sol.grid, sol.gamma_capital))
    t_mat = np.exp(-big_gamma / 2.0) * rotation_r(sol.cfg, tau)
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
    #: Worst relative asymmetry of Wbar over the grid (bounded by 1e-8).
    wbar_asymmetry: float

    def window_mean(self, start: float, width: float) -> float:
        """Mean of I_c over the window [start, start + width]."""
        mask = (self.tau >= start - 1e-12) & (self.tau <= start + width + 1e-12)
        if not np.any(mask):
            raise ValueError("window does not intersect the trajectory grid")
        return float(np.mean(self.ic[mask]))

    def write_csv(self, path):
        columns = (self.tau, self.ic, self.gamma_capital, self.n12,
                   self.term_t21, self.term_t12t22)
        with open(path, "w", newline="\n") as fh:
            fh.write("tau,Ic,Gamma,N12,term_T21,term_T12T22\n")
            for lo in range(0, len(self.tau), _CHUNK):
                rows = np.column_stack([c[lo:lo + _CHUNK] for c in columns]).tolist()
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


def _cross_check(sol: QbmSolution, direct: np.ndarray) -> float:
    """Worst |generic I_c - direct| over the solution's nodes, one batched
    measure call.

    Raises :class:`FormulaInconsistencyError` when a channel matrix is
    non-finite or any point (NaN included) misses ``CROSS_CHECK_TOL``.
    """
    grid = sol.grid
    t_mats = np.exp(-sol.gamma_capital / 2.0)[:, None, None] * np.moveaxis(
        _rotations(grid, sol.cfg.x), -1, 0)
    n_mats = 2.0 * np.moveaxis(sol.wbar, -1, 0)
    n_mats = 0.5 * (n_mats + np.swapaxes(n_mats, -1, -2))
    finite = np.all(np.isfinite(t_mats), axis=(1, 2)) & np.all(np.isfinite(n_mats), axis=(1, 2))
    if not np.all(finite):
        tau = grid[int(np.argmin(finite))]
        raise FormulaInconsistencyError(f"non-finite channel matrices at tau={tau:g}")
    generic = channel_measure_ic_stack(t_mats, n_mats, np.zeros((len(grid), 2)))
    error = np.abs(generic - direct)
    if not np.all(error <= CROSS_CHECK_TOL):
        i = int(np.argmax(~(error <= CROSS_CHECK_TOL)))
        raise FormulaInconsistencyError(f"generic measure and trajectory formula disagree "
                                        f"by {error[i]:.3e} at tau={grid[i]:g}")
    return float(np.max(error))


def imaginarity_trajectory(
    cfg: QbmConfig, horizon: float, step: float = DEFAULT_STEP
) -> Trajectory:
    """I_c of the QBM channel on a tau-grid, with built-in cross-check.

    Every grid point is evaluated both through the generic channel
    measure on the emitted (T, N, d) matrices and through the
    specialized damped-oscillation formula

        |e^{-Gamma/2} sin(tau/x)| + (1/2)|e^{-Gamma} sin(2 tau/x)| + |N12|;

    the two must agree within ``CROSS_CHECK_TOL`` at every point, and
    Wbar must be symmetric within ``ASYMMETRY_TOL``.  Both checks run
    ``_CHUNK`` nodes at a time.
    """
    sol = solve_qbm(cfg, horizon, step)
    m, x = len(sol.grid), cfg.x
    n12, term1, term2, direct = (np.empty(m) for _ in range(4))
    error = asymmetry = 0.0
    for lo in range(0, m, _CHUNK):
        nodes = slice(lo, lo + _CHUNK)
        part = sol._nodes(nodes)
        tau, big_gamma = part.grid, part.gamma_capital
        n12[nodes] = 2.0 * part.wbar[0, 1]
        term1[nodes] = np.abs(np.exp(-big_gamma / 2.0) * np.sin(tau / x))
        term2[nodes] = 0.5 * np.abs(np.exp(-big_gamma) * np.sin(2.0 * tau / x))
        direct[nodes] = term1[nodes] + term2[nodes] + np.abs(n12[nodes])
        error = max(error, _cross_check(part, direct[nodes]))
        asymmetry = max(asymmetry, _asymmetry(part))
    return Trajectory(cfg, sol.grid, direct, sol.gamma_capital, n12, term1, term2,
                      cross_check_error=error, wbar_asymmetry=asymmetry)


# ---------------------------------------------------------------------------
# asymptotics and oracles
# ---------------------------------------------------------------------------

def n12_scalar_oracle(sol: QbmSolution) -> np.ndarray:
    """N12 at the solution's nodes via the scalar co-rotating integral.

    Independent algebraic route (trig-expanded cumulative integrals on
    its own whole-grid evaluation of the refined coefficients, unscaled,
    so for Gamma below ~700) used to cross-check the matrix Wbar path:

      N12(tau) = e^{-Gamma} * integral of
                 e^{Gamma}[Delta sin(2(s-tau)/x) - Pi cos(2(s-tau)/x)] ds.
    """
    fine = _refine_grid(sol.grid, NOISE_REFINEMENT)
    gamma, delta, pi_ = _coefficients(sol.cfg, fine)
    big_gamma = 2.0 * _cumulative_simpson(gamma, fine)
    x = sol.cfg.x
    weight = np.exp(big_gamma)
    sin2, cos2 = np.sin(2.0 * fine / x), np.cos(2.0 * fine / x)
    a1, a2, b1, b2 = _cumulative_simpson(np.array([weight * delta * sin2, weight * delta * cos2,
                                                   weight * pi_ * sin2, weight * pi_ * cos2]), fine)
    n12 = np.exp(-big_gamma) * (cos2 * (a1 - b2) - sin2 * (a2 + b1))
    return n12[::NOISE_REFINEMENT]


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
