import dataclasses
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import gaussimag.qbm as qbm
from gaussimag.gaussian import validate_channel
from gaussimag.qbm import (
    FormulaInconsistencyError,
    IntegrationResolutionError,
    QbmConfig,
    coeff_delta_closed,
    coeff_delta_quadrature,
    coeff_gamma_closed,
    coeff_gamma_quadrature,
    coeff_pi_closed,
    coeff_pi_quadrature,
    imaginarity_trajectory,
    n12_scalar_oracle,
    noise_wbar,
    qbm_channel,
    rotation_r,
    solve_qbm,
    steady_state_n12,
)

HIGH = QbmConfig(alpha=0.03, x=0.5, theta=100.0, regime="high")
LOW = QbmConfig(alpha=0.03, x=0.5, theta=10.0, regime="low")


# ---------------------------------------------------------------------------
# coefficient functions: two independent routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [HIGH, LOW], ids=["high", "low"])
@pytest.mark.parametrize("tau", [0.3, 1.7, 5.0, 12.0])
def test_closed_forms_match_quadrature(cfg, tau):
    assert coeff_gamma_closed(cfg, tau) == pytest.approx(
        coeff_gamma_quadrature(cfg, tau), rel=1e-6, abs=1e-12
    )
    assert coeff_delta_closed(cfg, tau) == pytest.approx(
        coeff_delta_quadrature(cfg, tau), rel=1e-5, abs=1e-12
    )
    assert coeff_pi_closed(cfg, tau) == pytest.approx(
        coeff_pi_quadrature(cfg, tau), rel=1e-5, abs=1e-12
    )


def mp_coefficients(cfg: QbmConfig, tau: float) -> tuple:
    """(gamma, Delta, Pi) of the closed forms at 40 digits.

    Each conjugate pair Ei(z) +/- Ei(conj z) is written as 2 Re or 2i Im of
    mpmath's Ei(z), so no float kernel or cancellation enters.
    """
    with mp.workdps(40):
        x, a2, t = mp.mpf(cfg.x), mp.mpf(cfg.alpha) ** 2, mp.mpf(tau)

        def ei(re):  # Ei((re + i tau)/x)
            return mp.ei(mp.mpc(re, t) / x)

        e, f = ei(1), ei(-1)
        gamma = a2 / (4 * x) * (
            mp.exp(-1 / x) * 2 * e.imag + mp.exp(1 / x) * (2 * mp.pi - 2 * f.imag)
            - 4 * x * mp.sin(t / x) / (1 + t * t)
        )
        if cfg.regime == "high":
            pref, grow = a2 * mp.mpf(cfg.theta) * mp.exp(-1 / x) / 2, mp.exp(2 / x)
            delta = pref * (2 * e.imag + grow * (2 * mp.pi - 2 * f.imag))
            pi_ = pref * (2 * mp.ei(1 / x) - 2 * e.real
                          + grow * (2 * f.real - 2 * mp.ei(-1 / x)))
            return float(gamma), float(delta), float(pi_)
        delta = pi_ = 0
        for b, weight in ((mp.mpf(1), 1), (1 + 1 / mp.mpf(cfg.theta), 2)):
            g, h = ei(b), ei(-b)
            boundary = t / (b * b + t * t)
            delta += weight * a2 * (mp.cos(t / x) * boundary + (
                mp.exp(-b / x) * g.imag + mp.exp(b / x) * (h.imag - mp.pi)) / (2 * x))
            pi_ += weight * a2 * (mp.sin(t / x) * boundary - (
                mp.exp(-b / x) * (g.real - mp.ei(b / x))
                + mp.exp(b / x) * (h.real - mp.ei(-b / x))) / (2 * x))
        return float(gamma), float(delta), float(pi_)


#: Short times, where the quadrature route converges, and long ones, where it
#: raises ConvergenceError and only the 40-digit evaluation checks the floats.
ORACLE_TAUS = [0.05, 0.7, 3.0, 25.0, 615.7, 3e3, 2e4, 4.2e4, 1e5, 2.1e5]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg", [
    HIGH, QbmConfig(alpha=0.03, x=0.9, theta=100.0), LOW,
    QbmConfig(alpha=0.03, x=0.9, theta=10.0, regime="low"),
], ids=["high-0.5", "high-0.9", "low-0.5", "low-0.9"])
def test_closed_forms_match_40_digit_evaluation(cfg):
    taus = np.array(ORACLE_TAUS)
    want = np.array([mp_coefficients(cfg, t) for t in taus]).T
    got = [fn(cfg, taus) for fn in (coeff_gamma_closed, coeff_delta_closed, coeff_pi_closed)]
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 5e-14 * np.max(np.abs(w))
    # the transcription above agrees with the defining integrals
    for t, (gamma, delta, pi_) in zip(taus[:3], want.T):
        assert gamma == pytest.approx(coeff_gamma_quadrature(cfg, t), rel=1e-6, abs=1e-12)
        assert delta == pytest.approx(coeff_delta_quadrature(cfg, t), rel=1e-5, abs=1e-12)
        assert pi_ == pytest.approx(coeff_pi_quadrature(cfg, t), rel=1e-5, abs=1e-12)


@pytest.mark.parametrize("regime, theta", [("high", 100.0), ("low", 10.0)])
@pytest.mark.parametrize("x", [0.1, 0.05, 0.03, 0.01])
def test_closed_forms_match_quadrature_at_small_x(regime, theta, x):
    # gamma and Delta read Im E1((b - i tau)/x): as 2 pi - 2 Im Ei((-b + i tau)/x)
    # they lost all digits at x 0.03 (gamma 67 times too large)
    cfg = QbmConfig(alpha=0.03, x=x, theta=theta, regime=regime)
    routes = ((coeff_gamma_closed, coeff_gamma_quadrature),
              (coeff_delta_closed, coeff_delta_quadrature),
              (coeff_pi_closed, coeff_pi_quadrature))
    for closed, quadrature in routes:
        # low-T Delta at x 0.01 is 1e3-fold smaller than its boundary and Ei
        # terms, which the rounding of tau/x and b/x moves by ~1e-15: it
        # measures 1.3e-11 at tau 1
        tol = 2e-11 if (regime, x, closed) == ("low", 0.01, coeff_delta_closed) else 1e-11
        for tau in (0.5, 1.0, 3.0):
            want = quadrature(cfg, tau)
            assert abs(closed(cfg, tau) - want) <= tol * abs(want), (closed.__name__, tau)


@pytest.mark.parametrize("cfg", [HIGH, LOW], ids=["high", "low"])
def test_coefficients_vanish_at_origin(cfg):
    for fn in (coeff_gamma_closed, coeff_delta_closed, coeff_pi_closed):
        assert fn(cfg, 0.0) == 0.0
        arr = fn(cfg, np.array([0.0, 1.0]))
        assert arr[0] == 0.0
        assert arr[1] != 0.0


def test_gamma_small_tau_cubic_onset():
    # gamma ~ (2 alpha^2 / 3x) tau^3 for small tau, so halving tau
    # divides it by ~8
    ratio = coeff_gamma_quadrature(HIGH, 0.02) / coeff_gamma_quadrature(HIGH, 0.01)
    assert ratio == pytest.approx(8.0, rel=0.01)


def test_scalar_and_array_calls_agree():
    taus = np.array([0.5, 2.5, 9.0])
    for fn in (coeff_gamma_closed, coeff_delta_closed, coeff_pi_closed):
        arr = fn(HIGH, taus)
        for i, t in enumerate(taus):
            assert fn(HIGH, float(t)) == pytest.approx(arr[i], rel=1e-14)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        QbmConfig(alpha=0.0, x=0.5, theta=100.0)
    with pytest.raises(ValueError):
        QbmConfig(alpha=0.03, x=0.5, theta=100.0, regime="medium")
    with pytest.raises(ValueError):
        coeff_gamma_quadrature(HIGH, -1.0)


def test_config_domain_bounds():
    # alpha**2 * theta <= 1e5; the largest allowed theta still passes the
    # cross-check, which the trajectory raises on
    for alpha, theta in ((1.0, 1e5), (0.03, 1e5 / 0.03**2)):
        traj = imaginarity_trajectory(QbmConfig(alpha=alpha, x=0.9, theta=theta), 60.0)
        assert traj.cross_check_error <= qbm.CROSS_CHECK_TOL
    with pytest.raises(ValueError, match="alpha must be at most 1"):
        QbmConfig(alpha=1.5, x=0.5, theta=1.0)
    with pytest.raises(ValueError, match="theta must be at most"):
        QbmConfig(alpha=0.03, x=0.5, theta=1.2e8)
    with pytest.raises(ValueError, match="theta must be at most"):
        QbmConfig(alpha=1.0, x=0.5, theta=1e5 * (1 + 1e-15), regime="low")
    # low regime: (1 + 1/theta)/x <= 700, the smallest allowed theta runs
    for x in (0.5, 0.9):
        floor = 1.0 / (qbm.LOW_T_EXPONENT_MAX * x - 1.0)
        cfg = QbmConfig(alpha=0.03, x=x, theta=floor, regime="low")
        assert cfg.cutoff_shift / x == qbm.LOW_T_EXPONENT_MAX
        assert imaginarity_trajectory(cfg, 60.0).cross_check_error <= qbm.CROSS_CHECK_TOL
        with pytest.raises(ValueError, match=f"theta must be at least {floor:.3g} at x {x:g}"):
            QbmConfig(alpha=0.03, x=x, theta=floor * (1 - 1e-12), regime="low")
        QbmConfig(alpha=0.03, x=x, theta=floor * (1 - 1e-12), regime="high")
    # high regime: 2/x <= 700, the smallest allowed x runs
    x_min = 2.0 / qbm.LOW_T_EXPONENT_MAX
    assert 2.0 / x_min == qbm.LOW_T_EXPONENT_MAX
    traj = imaginarity_trajectory(QbmConfig(alpha=0.03, x=x_min, theta=100.0), 60.0)
    assert traj.cross_check_error <= qbm.CROSS_CHECK_TOL
    for x in (x_min * (1 - 1e-12), 1e-3, 1e-300):
        with pytest.raises(ValueError, match=f"x must be at least {x_min:.3g} in the high"):
            QbmConfig(alpha=0.03, x=x, theta=100.0)
    # low regime at x <= 1/700: no theta is large enough, so x is named
    for x in (1.0 / qbm.LOW_T_EXPONENT_MAX, 1e-3):
        with pytest.raises(ValueError, match=f"x must exceed {1 / 700:.3g} in the low"):
            QbmConfig(alpha=0.03, x=x, theta=1e5, regime="low")


# ---------------------------------------------------------------------------
# accumulated damping
# ---------------------------------------------------------------------------

def _fixed_gamma(monkeypatch, value):
    """Replace the closed-form gamma by the constant ``value``."""
    shared = qbm._coefficients

    def fixed(cfg, t, *consts):
        gamma, delta, pi_ = shared(cfg, t, *consts)
        return np.full_like(gamma, value), delta, pi_

    monkeypatch.setattr(qbm, "_coefficients", fixed)


def _gamma_at(sol, tau):
    return float(np.interp(tau, sol.grid, sol.gamma_capital))


def test_gamma_capital_zero_coefficient(monkeypatch):
    _fixed_gamma(monkeypatch, 0.0)
    assert np.max(np.abs(solve_qbm(HIGH, 10.0).gamma_capital)) == 0.0


def test_gamma_capital_constant_coefficient(monkeypatch):
    _fixed_gamma(monkeypatch, 0.37)
    sol = solve_qbm(HIGH, 10.0)
    for tau in (0.0, 1.0, 4.2, 10.0):
        assert _gamma_at(sol, tau) == pytest.approx(2.0 * 0.37 * tau, abs=1e-12)


def test_gamma_capital_step_halving():
    a = solve_qbm(HIGH, 10.0, step=0.01).gamma_capital[-1]
    b = solve_qbm(HIGH, 10.0, step=0.005).gamma_capital[-1]
    assert abs(a - b) < 1e-6


def test_gamma_capital_eventually_monotone():
    sol = solve_qbm(HIGH, 50.0)
    assert _gamma_at(sol, 50.0) > 0
    # damping accumulates monotonically once transients pass
    tail = sol.gamma_capital[sol.grid > 5.0]
    assert np.all(np.diff(tail) > -1e-12)


def test_gamma_capital_range_errors():
    sol = solve_qbm(HIGH, 5.0)
    with pytest.raises(ValueError):
        qbm_channel(sol, 6.0)
    with pytest.raises(ValueError):
        solve_qbm(HIGH, -1.0)


def _scipy_cumulative_simpson(y, x):
    from scipy.integrate import cumulative_simpson

    return cumulative_simpson(y, x=x, initial=0.0, axis=-1)


def _assert_simpson_matches_scipy(y, x):
    got = qbm._cumulative_simpson(y, x)
    assert got.shape == y.shape
    assert np.array_equal(got, _scipy_cumulative_simpson(y, x))


PANEL_CONFIGS = [
    QbmConfig(alpha=0.03, x=x, theta=100.0, regime="high") for x in (0.5, 0.7, 0.9)
] + [LOW]


@pytest.mark.parametrize(
    "horizon, configs",
    # 60.004 appends the horizon node after 60.00: a short last interval
    [(60.0, PANEL_CONFIGS), (615.7, [HIGH]), (60.004, [HIGH])],
    ids=["panels", "long", "short-last-interval"],
)
def test_cumulative_simpson_matches_scipy_on_refined_grids(horizon, configs):
    fine = qbm._refine_grid(qbm._make_grid(horizon, qbm.DEFAULT_STEP), qbm.NOISE_REFINEMENT)
    for cfg in configs:
        gamma, delta, pi_ = qbm._coefficients(cfg, fine)
        _assert_simpson_matches_scipy(gamma, fine)
        _assert_simpson_matches_scipy(np.array([[delta, pi_], [pi_, gamma]]), fine)


# Two points (a grid with horizon <= step) take SciPy's trapezoid fallback.
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_cumulative_simpson_matches_scipy_on_short_grids(m):
    rng = np.random.default_rng(m)
    x = np.cumsum(rng.uniform(0.05, 1.0, m))
    _assert_simpson_matches_scipy(rng.normal(size=m), x)
    _assert_simpson_matches_scipy(rng.normal(size=(2, 2, m)), x)


@pytest.mark.parametrize("seed", range(5))
def test_cumulative_simpson_matches_scipy_on_random_grids(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(7, 200))
    x = np.cumsum(rng.exponential(1.0, m)) + rng.normal()
    assert np.all(np.diff(x) > 0)
    _assert_simpson_matches_scipy(rng.normal(size=m), x)
    _assert_simpson_matches_scipy(rng.normal(size=(2, 2, m)), x)


# ---------------------------------------------------------------------------
# rotation and noise
# ---------------------------------------------------------------------------

def test_rotation_group_law():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a, b = rng.uniform(0, 10, 2)
        lhs = rotation_r(HIGH, a) @ rotation_r(HIGH, b)
        assert np.allclose(lhs, rotation_r(HIGH, a + b), atol=1e-12)
    r = rotation_r(HIGH, 1.3)
    assert np.allclose(r @ r.T, np.eye(2), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_noise_zero_at_origin():
    sol = solve_qbm(HIGH, 5.0)
    assert np.max(np.abs(noise_wbar(sol, 0.0))) == 0.0


def test_noise_zero_when_diffusion_off(monkeypatch):
    shared = qbm._coefficients

    def no_diffusion(cfg, t, *consts):
        gamma, delta, pi_ = shared(cfg, t, *consts)
        return gamma, np.zeros_like(delta), np.zeros_like(pi_)

    monkeypatch.setattr(qbm, "_coefficients", no_diffusion)
    sol = solve_qbm(HIGH, 5.0)
    for tau in (1.0, 3.0, 5.0):
        assert np.max(np.abs(noise_wbar(sol, tau))) == 0.0


def test_noise_is_symmetric():
    sol = solve_qbm(HIGH, 20.0)
    for tau in (0.5, 7.0, 20.0):
        w = noise_wbar(sol, tau)
        assert np.array_equal(w, w.T)


# ---------------------------------------------------------------------------
# the channel
# ---------------------------------------------------------------------------

def test_qbm_channel_at_origin_is_identity():
    c = qbm_channel(solve_qbm(HIGH, 5.0), 0.0)
    assert np.allclose(c.T, np.eye(2))
    assert np.max(np.abs(c.N)) == 0.0
    assert np.max(np.abs(c.d)) == 0.0


def test_qbm_channel_t_gram_is_damping():
    sol = solve_qbm(HIGH, 20.0)
    for tau in (1.0, 5.0, 20.0):
        c = qbm_channel(sol, tau)
        assert np.allclose(
            c.T.T @ c.T, np.exp(-_gamma_at(sol, tau)) * np.eye(2), atol=1e-12
        )


@pytest.mark.parametrize("cfg", [HIGH, LOW], ids=["high", "low"])
def test_qbm_channel_is_physical(cfg):
    sol = solve_qbm(cfg, 20.0)
    for tau in (1.0, 5.0, 20.0):
        assert validate_channel(qbm_channel(sol, tau))


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_trajectory():
    return imaginarity_trajectory(HIGH, 12.0)


def test_trajectory_starts_at_zero(short_trajectory):
    assert short_trajectory.ic[0] == 0.0


def test_trajectory_rotation_terms_vanish_each_period(short_trajectory):
    # |T21| has zeros at every multiple of pi*x, within one grid step
    step = short_trajectory.tau[1] - short_trajectory.tau[0]
    for k in range(1, 7):
        node = k * np.pi * HIGH.x
        i = int(np.argmin(np.abs(short_trajectory.tau - node)))
        assert short_trajectory.term_t21[i] <= 2.0 * step / HIGH.x


def test_trajectory_breakdown_sums(short_trajectory):
    total = (
        short_trajectory.term_t21
        + short_trajectory.term_t12t22
        + np.abs(short_trajectory.n12)
    )
    assert np.max(np.abs(total - short_trajectory.ic)) <= 1e-12


def test_trajectory_reports_cross_check_error(short_trajectory):
    assert 0.0 <= short_trajectory.cross_check_error <= qbm.CROSS_CHECK_TOL


@pytest.mark.parametrize("cfg,batches", [(HIGH, 2), (LOW, 4)], ids=["high", "low"])
def test_trajectory_evaluates_each_ei_batch_once(monkeypatch, cfg, batches):
    # one Ei and one E1 batch per cutoff over each chunk's refined points
    # (8 points a row at high T, 16 at low T, plus the point each seam
    # shares), and the scalar constants Ei(+/-1/x) and, at low T,
    # Ei(+/-b/x) once per trajectory
    array_points, scalar_calls = [], []

    def counting(original):
        def count(z):
            if np.ndim(z):
                array_points.append(np.size(z))
            else:
                scalar_calls.append(z)
            return original(z)
        return count

    monkeypatch.setattr(qbm, "expint_ei", counting(qbm.expint_ei))
    monkeypatch.setattr(qbm, "expint_e1", counting(qbm.expint_e1))
    traj = imaginarity_trajectory(cfg, 100.0)
    intervals = len(traj.tau) - 1
    chunks = [min(qbm._CHUNK, intervals - lo) for lo in range(0, intervals, qbm._CHUNK)]
    assert len(chunks) == 3
    assert array_points == [qbm.NOISE_REFINEMENT * n + 1 for n in chunks for _ in range(batches)]
    assert sum(array_points) == batches * (qbm.NOISE_REFINEMENT * intervals + len(chunks))
    assert len(scalar_calls) == batches


def _low_t_shifted_terms_direct(cfg, t):
    """The cutoff-shifted low-T terms with both Ei batches evaluated."""
    x, a2, b = cfg.x, cfg.alpha**2, cfg.cutoff_shift
    g_b = qbm.expint_ei((b + 1j * t) / x)
    g_bc = qbm.expint_ei((b - 1j * t) / x)
    k_b = qbm.expint_e1((b - 1j * t) / x)
    boundary = t / (b * b + t * t)
    delta_b = 2.0 * a2 * (
        np.cos(t / x) * boundary
        + (1.0 / (4j * x))
        * (
            np.exp(-b / x) * (g_b - g_bc)
            - np.exp(b / x) * 2j * k_b.imag
        )
    )
    ei_b, ei_mb = qbm.expint_ei(b / x), qbm.expint_ei(-b / x)
    pi_b = 2.0 * a2 * (
        np.sin(t / x) * boundary
        - (1.0 / (4.0 * x))
        * (
            np.exp(-b / x) * (g_b + g_bc - 2.0 * ei_b)
            - np.exp(b / x) * (2.0 * k_b.real + 2.0 * ei_mb)
        )
    )
    return delta_b, pi_b


@pytest.mark.parametrize("x", [0.5, 0.7, 0.9])
def test_conjugate_ei_batches_equal_direct_evaluation(x):
    # Ei(conj z) == conj(Ei(z)) stands in for the -i tau batch, and
    # i pi - E1((1 - i tau)/x) for Ei((-1 + i tau)/x); evaluating all four
    # Ei arguments directly stays here as the reference
    cfg = QbmConfig(alpha=0.03, x=x, theta=10.0, regime="low")
    t = qbm._refine_grid(qbm._make_grid(60.0, 0.01), qbm.NOISE_REFINEMENT)
    assert t[0] == 0.0
    direct = [qbm.expint_ei((s + 1j * sign * t) / x)
              for s in (1.0, -1.0) for sign in (1.0, -1.0)]
    e_p, e_m, k = qbm._ei_pairs(t, x)
    assert np.array_equal(e_p, direct[0]) and np.array_equal(e_m, direct[1])
    assert np.array_equal(k, qbm.expint_e1((1.0 - 1j * t) / x))
    off = t > 0
    assert np.array_equal(1j * np.pi - k[off], direct[2][off])
    assert np.array_equal(np.conj(1j * np.pi - k[off]), direct[3][off])
    b = cfg.cutoff_shift
    terms = qbm._low_t_bath_terms(cfg, t, b, 2.0, qbm._ei_pairs(t, x, b),
                                  qbm._ei_constants(cfg)[1])
    for got, want in zip(terms, _low_t_shifted_terms_direct(cfg, t)):
        assert np.array_equal(got, want)


def _corrupt_solution(monkeypatch, entry, value):
    """Make the trajectory read a solution whose Wbar ``entry`` at the middle
    node is ``value(Wbar)``."""
    original = qbm.solve_qbm

    def corrupted(*args):
        sol = original(*args)
        wbar = sol.wbar.copy()
        mid = len(sol.grid) // 2
        wbar[entry + (mid,)] = value(wbar[..., mid])
        return dataclasses.replace(sol, wbar=wbar)

    monkeypatch.setattr(qbm, "solve_qbm", corrupted)


@pytest.mark.parametrize(
    "value", [lambda w: w[0, 1] + 1e-6, lambda w: np.nan], ids=["off-by-1e-6", "nan"]
)
def test_corrupted_wbar_entry_fails_cross_check(monkeypatch, value):
    # one off-diagonal entry: the formula reads N12 = 2 Wbar[0, 1], the
    # generic measure the symmetrized N
    _corrupt_solution(monkeypatch, (0, 1), value)
    with pytest.raises(FormulaInconsistencyError):
        imaginarity_trajectory(HIGH, 5.0)


def test_trajectory_reports_wbar_asymmetry(short_trajectory):
    assert 0.0 <= short_trajectory.wbar_asymmetry <= qbm.ASYMMETRY_TOL


def test_asymmetric_wbar_entry_fails_the_asymmetry_check(monkeypatch):
    # Wbar[1, 0] = -3 Wbar[0, 1] leaves |N12| of the symmetrized N equal to
    # the formula's |2 Wbar[0, 1]|, so only the asymmetry check can see it
    _corrupt_solution(monkeypatch, (1, 0), lambda w: -3.0 * w[0, 1])
    with pytest.raises(IntegrationResolutionError, match="asymmetry .* at tau=2.5"):
        imaginarity_trajectory(HIGH, 5.0)


def test_cross_check_fails_on_nan_formula_value():
    sol = solve_qbm(HIGH, 5.0)
    x = HIGH.x
    direct = (
        np.abs(np.exp(-sol.gamma_capital / 2.0) * np.sin(sol.grid / x))
        + 0.5 * np.abs(np.exp(-sol.gamma_capital) * np.sin(2.0 * sol.grid / x))
        + np.abs(2.0 * sol.wbar[0, 1])
    )
    assert qbm._cross_check(sol, direct) <= qbm.CROSS_CHECK_TOL
    direct[7] = np.nan
    with pytest.raises(FormulaInconsistencyError):
        qbm._cross_check(sol, direct)


def test_solution_is_immutable():
    sol = solve_qbm(HIGH, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.wbar = np.zeros_like(sol.wbar)
    for array in (sol.grid, sol.gamma_capital, sol.wbar):
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 1.0


TRAJECTORY_COLUMNS = ("tau", "ic", "gamma_capital", "n12", "term_t21", "term_t12t22",
                      "cross_check_error", "wbar_asymmetry")


#: 0.01 and 0.02 are grids of 2 and 3 nodes (the trapezoid fallback of the
#: node-grid Gamma); 0.61-0.63 end 1, 2 and 3 intervals after a seam of
#: chunk length 6; 0.604 and 60.004 end on a short interval, and 60.004
#: spans two chunks of the default length.
@pytest.mark.parametrize("horizon", [0.01, 0.02, 0.61, 0.62, 0.63, 0.604, 60.004])
@pytest.mark.parametrize("cfg", [HIGH, LOW], ids=["high", "low"])
def test_chunk_length_does_not_change_the_trajectory(monkeypatch, tmp_path, cfg, horizon):
    default = qbm._CHUNK
    monkeypatch.setattr(qbm, "_CHUNK", 1 << 20)  # the whole grid in one chunk
    whole = imaginarity_trajectory(cfg, horizon)
    whole.write_csv(tmp_path / "whole.csv")
    for chunk in (2, 6, default) if horizon < 1.0 else (default,):
        monkeypatch.setattr(qbm, "_CHUNK", chunk)
        got = imaginarity_trajectory(cfg, horizon)
        for name in TRAJECTORY_COLUMNS:
            assert np.array_equal(getattr(got, name), getattr(whole, name)), (chunk, name)
        got.write_csv(tmp_path / "chunked.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


STRONG = QbmConfig(alpha=1.0, x=0.9, theta=100.0)


def test_rebasing_does_not_depend_on_chunk_length(monkeypatch):
    # Gamma passes 4 * _REBASE: the noise integral's reference moves at the
    # same nodes whatever the chunk length
    monkeypatch.setattr(qbm, "_CHUNK", 1 << 20)
    whole = imaginarity_trajectory(STRONG, 300.0, step=0.5)
    assert whole.gamma_capital[-1] > 4 * qbm._REBASE
    for chunk in (2, 6, 100):
        monkeypatch.setattr(qbm, "_CHUNK", chunk)
        got = imaginarity_trajectory(STRONG, 300.0, step=0.5)
        for name in TRAJECTORY_COLUMNS:
            assert np.array_equal(getattr(got, name), getattr(whole, name)), (chunk, name)


def test_rebasing_changes_only_rounding(monkeypatch):
    # below Gamma ~ 700 the unscaled weights e^Gamma are still finite
    rebased = solve_qbm(STRONG, 300.0, step=0.5)
    monkeypatch.setattr(qbm, "_REBASE", np.inf)
    plain = solve_qbm(STRONG, 300.0, step=0.5)
    assert np.array_equal(rebased.gamma_capital, plain.gamma_capital)
    scale = np.maximum(1.0, np.max(np.abs(plain.wbar), axis=(0, 1)))
    assert np.max(np.abs(rebased.wbar - plain.wbar) / scale) <= 1e-12


@pytest.mark.parametrize("x", [0.5, 0.9])
def test_strong_coupling_reaches_the_steady_state(x):
    # Gamma reaches ~1e3 by tau = 1.2e4, beyond the e^Gamma overflow at 709
    cfg = QbmConfig(alpha=0.3, x=x, theta=100.0)
    traj = imaginarity_trajectory(cfg, 1.2e4, step=0.1)
    assert traj.gamma_capital[-1] > 900.0
    late = traj.n12[traj.tau >= traj.tau[-1] - 100.0]
    steady = steady_state_n12(cfg)
    assert np.max(np.abs(late - steady)) <= 1e-5 * abs(steady)


def test_peak_memory_grows_by_at_most_200_bytes_a_node(tmp_path):
    # the per-node output (Trajectory columns, Gamma and Wbar) is about
    # 90 bytes a node; every other array is one chunk long
    peaks, nodes = [], []
    for horizon in (61.57, 615.7):
        tracemalloc.start()
        try:
            traj = imaginarity_trajectory(HIGH, horizon)
            traj.write_csv(tmp_path / "t.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        nodes.append(len(traj.tau))
        del traj
    per_node = (peaks[1] - peaks[0]) / (nodes[1] - nodes[0])
    assert per_node <= 200.0, f"{per_node:.0f} bytes a node"


@pytest.mark.parametrize(
    "values",
    [
        np.array([1.0 + 0j, np.nan + 0j]),
        np.array([1.0 + 0j, np.inf + 0j]),
        np.array([1.0 + 0j, 1.0 + np.nan * 1j]),
        np.array([-np.inf + 1j * np.inf]),
    ],
    ids=["nan-real", "inf-real-zero-imag", "nan-residue", "inf-inf"],
)
def test_real_checked_rejects_non_finite(values):
    with pytest.raises(qbm.ClosedFormError, match="gamma"):
        qbm._real_checked(values, "gamma")


def test_real_checked_passes_small_residue_and_rejects_large():
    values = np.array([2.0 + 1e-9j, -3.0 + 0j])
    assert np.array_equal(qbm._real_checked(values, "Pi"), [2.0, -3.0])
    with pytest.raises(qbm.ClosedFormError, match="imaginary residue"):
        qbm._real_checked(np.array([2.0 + 1e-6j]), "Pi")


def test_n12_matrix_route_matches_scalar_oracle():
    sol = solve_qbm(HIGH, 30.0)
    oracle = n12_scalar_oracle(sol)
    assert np.max(np.abs(2.0 * sol.wbar[0, 1] - oracle)) <= 1e-9


def _per_value_line(row):
    """The CSV line as the writer once made it, one format call per value."""
    return ",".join(
        np.format_float_positional(v, precision=12, unique=False, fractional=False, trim="-")
        for v in row
    ) + "\n"


def _csv_edge_values():
    rng = np.random.default_rng(7)
    magnitudes = 10.0 ** rng.uniform(-30.0, 20.0, 100_002)
    random = magnitudes * rng.choice([-1.0, 1.0], magnitudes.size)
    # exact ties at the 13th significant digit (odd k), and near-ties
    ties = np.concatenate([
        10.0 + np.arange(1, 2048) / 2048.0,
        123456.0 + np.arange(1, 128) / 128.0,
        1.0 + np.arange(1, 4096, 2) / 2.0**40,
    ])
    powers = 10.0 ** np.arange(-20, 21)
    neighbours = np.concatenate([
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
    ])
    round_up = np.array([9.999999999995, 9.9999999999951, 0.00099999999999951,
                         999999999999.5, 999999999999.4, 99999.99999995])
    special = np.array([0.0, -0.0, 5e-324, 2.2e-308, 9.9e-5, 1e-4, 1.00000000001e-4,
                        1e12, 1.2e12, 9.99999999999e11, -3e-7, 1e20])
    values = np.concatenate([random, ties, -ties, neighbours, -neighbours,
                             round_up, -round_up, special])
    # rows of similar magnitudes, so that most rows avoid the fallback
    values = values[np.argsort(np.abs(values), kind="stable")]
    return values[: values.size // 6 * 6].reshape(-1, 6)


def test_csv_rows_match_per_value_format():
    rows = _csv_edge_values().tolist()
    got = list(qbm._csv_lines(rows))
    assert len(got) == len(rows)
    for row, line in zip(rows, got):
        assert line == _per_value_line(row), row
    fallback = sum("e" in qbm._CSV_ROW % tuple(row) for row in rows)
    assert 0 < fallback < 0.8 * len(rows)


def test_csv_round_trip(tmp_path, short_trajectory):
    path = tmp_path / "traj.csv"
    short_trajectory.write_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "tau,Ic,Gamma,N12,term_T21,term_T12T22"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(short_trajectory.tau), 6)
    assert np.allclose(data[:, 0], short_trajectory.tau, atol=1e-11)
    assert np.allclose(data[:, 1], short_trajectory.ic, rtol=1e-11, atol=1e-12)
    # fixed-precision decimal, no scientific notation
    assert "e" not in lines[1] and "E" not in lines[1]


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "alpha,x,expected",
    [
        (0.01, 0.5, 0.001),
        (0.03, 0.5, 0.01),
        (0.05, 0.5, 0.028),
        (0.03, 0.7, 0.024),
        (0.03, 0.9, 0.042),
    ],
)
def test_steady_state_n12_magnitudes(alpha, x, expected):
    cfg = QbmConfig(alpha=alpha, x=x, theta=100.0, regime="high")
    assert abs(steady_state_n12(cfg)) == pytest.approx(expected, rel=0.25)


def test_high_temperature_saturation():
    """The mean of I_c over ten periods changes < 5% between two windows
    (theta = 100).  The early window starts where the T-term envelope
    (2/pi) e^{-Gamma/2}, the window mean of |e^{-Gamma/2} sin(tau/x)|, is
    half of 5% of the steady |N12|; the late one starts twice as late.
    Gamma ~ 2 gamma_inf tau there, with gamma_inf read off the closed form
    at large tau as ``steady_state_n12`` does.  Halving the grid step
    moves both window means by less than 0.1%."""
    probes = np.array([2000.0, 2000.0 + np.pi * HIGH.x / 2, 2000.0 + np.pi * HIGH.x])
    gamma_inf = float(np.mean(coeff_gamma_closed(HIGH, probes)))
    level = 0.5 * 0.05 * abs(steady_state_n12(HIGH))
    early_start = float(np.log(2.0 / (np.pi * level)) / gamma_inf)
    late_start = 2.0 * early_start
    width = 10.0 * np.pi * HIGH.x
    traj = imaginarity_trajectory(HIGH, late_start + width, step=0.5)
    early = traj.window_mean(early_start, width)
    late = traj.window_mean(late_start, width)
    big_gamma = float(np.interp(early_start, traj.tau, traj.gamma_capital))
    envelope = 2.0 / np.pi * np.exp(-big_gamma / 2.0)
    change = abs(late - early) / early
    assert change < 0.05, (
        f"window means {early:.4g} -> {late:.4g}, change {change:.1%}; early "
        f"window from tau={early_start:.0f} (Gamma {big_gamma:.2f}, envelope "
        f"{envelope:.2g}), late from tau={late_start:.0f}"
    )
