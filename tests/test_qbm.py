import dataclasses
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussimag.qbm as qbm
from gaussimag.gaussian import violated_constraint
from gaussimag.specfun import expint_e1_pair
from gaussimag.qbm import (
    FormulaInconsistencyError,
    IntegrationResolutionError,
    QbmConfig,
    coefficients,
    imaginarity_trajectory,
    qbm_channel,
    steady_state_n12,
)
from oracles import (
    coeff_delta_quadrature,
    coeff_gamma_quadrature,
    coeff_pi_quadrature,
    cumulative_simpson,
    gamma_capital_mp,
    gamma_capital_quadrature,
    gamma_capital_simpson,
    n12_scalar_oracle,
    refine_grid,
    steady_state_n12_mp,
    wbar_lobatto5,
)

HIGH = QbmConfig(alpha=0.03, x=0.5, theta=100.0, regime="high")
LOW = QbmConfig(alpha=0.03, x=0.5, theta=10.0, regime="low")


# ---------------------------------------------------------------------------
# coefficient functions: two independent routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [HIGH, LOW], ids=["high", "low"])
@pytest.mark.parametrize("tau", [0.3, 1.7, 5.0, 12.0])
def test_closed_forms_match_quadrature(cfg, tau):
    (gamma,), (delta,), (pi_,), _ = coefficients(cfg, np.array([tau]))
    assert gamma == pytest.approx(
        coeff_gamma_quadrature(cfg, tau), rel=1e-6, abs=1e-12
    )
    assert delta == pytest.approx(
        coeff_delta_quadrature(cfg, tau), rel=1e-5, abs=1e-12
    )
    assert pi_ == pytest.approx(
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
    got = coefficients(cfg, taus)[:3]
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
    routes = (("gamma", coeff_gamma_quadrature), ("Delta", coeff_delta_quadrature),
              ("Pi", coeff_pi_quadrature))
    for index, (name, quadrature) in enumerate(routes):
        # low-T Delta at x 0.01 is 1e3-fold smaller than its boundary and Ei
        # terms, which the rounding of tau/x and b/x moves by ~1e-15: it
        # measures 1.3e-11 at tau 1
        tol = 2e-11 if (regime, x, name) == ("low", 0.01, "Delta") else 1e-11
        for tau in (0.5, 1.0, 3.0):
            want = quadrature(cfg, tau)
            closed = coefficients(cfg, np.array([tau]))[index][0]
            assert abs(closed - want) <= tol * abs(want), (name, tau)


@pytest.mark.parametrize("cfg", [HIGH, LOW], ids=["high", "low"])
def test_coefficients_vanish_at_origin(cfg):
    for one, arr in zip(coefficients(cfg, np.array([0.0])),
                        coefficients(cfg, np.array([0.0, 1.0]))):
        assert one[0] == 0.0
        assert arr[0] == 0.0
        assert arr[1] != 0.0


def test_gamma_small_tau_cubic_onset():
    # gamma ~ (2 alpha^2 / 3x) tau^3 for small tau, so halving tau
    # divides it by ~8
    ratio = coeff_gamma_quadrature(HIGH, 0.02) / coeff_gamma_quadrature(HIGH, 0.01)
    assert ratio == pytest.approx(8.0, rel=0.01)


def test_scalar_and_array_calls_agree():
    # one point at a time and the whole batch
    taus = np.array([0.5, 2.5, 9.0])
    for i, t in enumerate(taus):
        for one, arr in zip(coefficients(HIGH, np.array([t])), coefficients(HIGH, taus)):
            assert one[0] == pytest.approx(arr[i], rel=1e-14)


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
    """Replace the closed-form gamma by the constant ``value``, and Gamma by
    its integral 2 ``value`` tau."""
    shared = qbm.coefficients

    def fixed(cfg, t):
        gamma, delta, pi_, _ = shared(cfg, t)
        return np.full_like(gamma, value), delta, pi_, 2.0 * value * t

    monkeypatch.setattr(qbm, "coefficients", fixed)


def _gamma_at(traj, tau):
    return float(np.interp(tau, traj.tau, traj.gamma_capital))


def test_gamma_capital_zero_coefficient(monkeypatch):
    _fixed_gamma(monkeypatch, 0.0)
    assert np.max(np.abs(imaginarity_trajectory(HIGH, 10.0).gamma_capital)) == 0.0


def test_gamma_capital_constant_coefficient(monkeypatch):
    _fixed_gamma(monkeypatch, 0.37)
    traj = imaginarity_trajectory(HIGH, 10.0)
    for tau in (0.0, 1.0, 4.2, 10.0):
        assert _gamma_at(traj, tau) == pytest.approx(2.0 * 0.37 * tau, abs=1e-12)


def test_one_node_grid_is_the_identity():
    # a horizon below 1e-12 gives the grid [0]: no interval to integrate
    traj = imaginarity_trajectory(HIGH, 1e-13)
    assert np.array_equal(traj.tau, [0.0])
    assert np.array_equal(traj.gamma_capital, [0.0])
    assert np.array_equal(traj.wbar, np.zeros((2, 2, 1)))


def test_gamma_capital_step_halving():
    a = imaginarity_trajectory(HIGH, 10.0, step=0.01).gamma_capital[-1]
    b = imaginarity_trajectory(HIGH, 10.0, step=0.005).gamma_capital[-1]
    assert abs(a - b) < 1e-6


def test_coarse_grid_gamma_equals_the_fine_grid_gamma():
    # Gamma is a closed form at each node, so the step does not enter it: at
    # step 0.5 the refined Simpson sum was 3.3e-6 off, and a Simpson pass over
    # gamma's node values alone 1.2e-3
    cfg = QbmConfig(alpha=0.3, x=0.5, theta=100.0)
    coarse = imaginarity_trajectory(cfg, 500.0, step=0.5)
    fine = imaginarity_trajectory(cfg, 500.0, step=0.005)
    reference = np.interp(coarse.tau, fine.tau, fine.gamma_capital)
    assert np.max(np.abs(coarse.gamma_capital - reference)) <= 1e-12


#: (alpha, x) of the Gamma oracle checks; at x 0.05 Gamma changes sign at
#: tau ~ 1.05 and 1.29, where no relative bound can hold.
GAMMA_CONFIGS = [QbmConfig(alpha=a, x=x, theta=100.0)
                 for a in (0.03, 0.3, 1.0) for x in (0.05, 0.5, 0.9)]
GAMMA_IDS = [f"alpha{c.alpha:g}-x{c.x:g}" for c in GAMMA_CONFIGS]


@pytest.mark.parametrize("cfg", GAMMA_CONFIGS, ids=GAMMA_IDS)
def test_gamma_capital_matches_the_50_digit_closed_form(cfg):
    # from tau = 1 to 2e5: within 1e-12 of the largest |Gamma| checked up to
    # each tau, which is |Gamma| itself where Gamma grows (x 0.5, 0.9); the
    # closed form is 5e-16 off where Gamma crosses zero at x 0.05 and alpha 1
    taus = np.concatenate([np.linspace(1.0, 3.0, 41), np.geomspace(3.0, 2e5, 61)[1:]])
    want = np.array([gamma_capital_mp(cfg, t) for t in taus])
    got = coefficients(cfg, taus)[3]
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum.accumulate(np.abs(want)))
    # below tau = 1, at every node of step 0.01, it is no further from the oracle
    # than the refined Simpson sum of the walk before it (2.7e-8 against
    # 8.3e-7 relative at tau 0.01, x 0.5)
    traj = imaginarity_trajectory(cfg, 1.0)
    want = np.array([gamma_capital_mp(cfg, t) for t in traj.tau[1:-1]])
    simpson = gamma_capital_simpson(cfg, traj.tau)[1:-1]
    assert np.all(np.abs(traj.gamma_capital[1:-1] - want) <= np.abs(simpson - want))
    assert traj.gamma_capital[0] == 0.0


@pytest.mark.parametrize("cfg", [GAMMA_CONFIGS[4], GAMMA_CONFIGS[3]], ids=["x0.5", "x0.05"])
def test_gamma_capital_oracle_matches_quadrature(cfg):
    # the 50-digit closed form against mpmath quadrature of 2 int gamma
    for tau in (0.01, 0.1, 1.0, 10.0, 60.0):
        want = gamma_capital_quadrature(cfg, tau)
        assert abs(gamma_capital_mp(cfg, tau) - want) <= 1e-14 * abs(want), tau


def test_gamma_capital_eventually_monotone():
    traj = imaginarity_trajectory(HIGH, 50.0)
    assert _gamma_at(traj, 50.0) > 0
    # damping accumulates monotonically once transients pass
    tail = traj.gamma_capital[traj.tau > 5.0]
    assert np.all(np.diff(tail) > -1e-12)


def test_gamma_capital_range_errors():
    traj = imaginarity_trajectory(HIGH, 5.0)
    with pytest.raises(IndexError):
        qbm_channel(traj, len(traj.tau))
    with pytest.raises(ValueError):
        imaginarity_trajectory(HIGH, -1.0)


def _scipy_cumulative_simpson(y, x):
    from scipy.integrate import cumulative_simpson

    return cumulative_simpson(y, x=x, initial=0.0, axis=-1)


def _assert_simpson_matches_scipy(y, x):
    # the test oracles' copy of the refined Simpson route
    got = cumulative_simpson(y, x)
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
    fine = refine_grid(qbm._make_grid(horizon, qbm.DEFAULT_STEP))
    for cfg in configs:
        gamma, delta, pi_, _ = coefficients(cfg, fine)
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
    def rot(tau):
        return qbm._rotations(tau, HIGH.x)

    rng = np.random.default_rng(19)
    for _ in range(20):
        a, b = rng.uniform(0, 10, 2)
        lhs = rot(a) @ rot(b)
        assert np.allclose(lhs, rot(a + b), atol=1e-12)
    r = rot(1.3)
    assert np.allclose(r @ r.T, np.eye(2), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_noise_zero_at_origin():
    traj = imaginarity_trajectory(HIGH, 5.0)
    assert np.max(np.abs(qbm_channel(traj, 0).N)) == 0.0


def test_noise_zero_when_diffusion_off(monkeypatch):
    shared = qbm.coefficients

    def no_diffusion(cfg, t):
        gamma, delta, pi_, big_gamma = shared(cfg, t)
        return gamma, np.zeros_like(delta), np.zeros_like(pi_), big_gamma

    monkeypatch.setattr(qbm, "coefficients", no_diffusion)
    traj = imaginarity_trajectory(HIGH, 5.0)
    for i in (100, 300, 500):  # tau 1, 3, 5
        assert np.max(np.abs(qbm_channel(traj, i).N)) == 0.0


def test_noise_is_symmetric():
    traj = imaginarity_trajectory(HIGH, 20.0)
    for i in (50, 700, 2000):  # tau 0.5, 7, 20
        w = qbm_channel(traj, i).N
        assert np.array_equal(w, w.T)


# ---------------------------------------------------------------------------
# the channel
# ---------------------------------------------------------------------------

def test_qbm_channel_at_origin_is_identity():
    c = qbm_channel(imaginarity_trajectory(HIGH, 5.0), 0)
    assert np.allclose(c.T, np.eye(2))
    assert np.max(np.abs(c.N)) == 0.0
    assert np.max(np.abs(c.d)) == 0.0


def test_qbm_channel_t_gram_is_damping():
    traj = imaginarity_trajectory(HIGH, 20.0)
    for i in (100, 500, 2000):  # tau 1, 5, 20
        c = qbm_channel(traj, i)
        assert np.allclose(
            c.T.T @ c.T, np.exp(-traj.gamma_capital[i]) * np.eye(2), atol=1e-12
        )


@pytest.mark.parametrize("cfg", [HIGH, LOW], ids=["high", "low"])
def test_qbm_channel_is_physical(cfg):
    traj = imaginarity_trajectory(cfg, 20.0)
    for i in (100, 500, 2000):  # tau 1, 5, 20
        assert not violated_constraint(qbm_channel(traj, i))


def test_qbm_channel_is_the_node_construction():
    # horizon 100: 10,001 nodes, three chunks of the walk
    traj = imaginarity_trajectory(HIGH, 100.0)
    for i, tau in enumerate(traj.tau):
        c, s = np.cos(tau / HIGH.x), np.sin(tau / HIGH.x)
        t_mat = np.exp(-traj.gamma_capital[i] / 2.0) * np.array([[c, s], [-s, c]])
        w = traj.wbar[..., i]
        chan = qbm_channel(traj, i)
        assert np.array_equal(chan.T, t_mat), tau
        assert np.array_equal(chan.N, 2.0 * (0.5 * (w + w.T))), tau
        assert np.array_equal(chan.d, np.zeros(2))


def test_qbm_channel_at_minus_one_is_the_horizon_node():
    traj = imaginarity_trajectory(HIGH, 5.0)
    last, horizon = qbm_channel(traj, -1), qbm_channel(traj, len(traj.tau) - 1)
    assert traj.tau[-1] == 5.0
    assert np.array_equal(last.T, horizon.T)
    assert np.array_equal(last.N, horizon.N)


def test_qbm_channel_checks_its_node_asymmetry():
    traj = imaginarity_trajectory(HIGH, 5.0)
    wbar = traj.wbar.copy()
    wbar[1, 0, 250] = -3.0 * wbar[0, 1, 250]
    bad = dataclasses.replace(traj, wbar=wbar)
    assert not violated_constraint(qbm_channel(bad, 249))
    with pytest.raises(IntegrationResolutionError, match="asymmetry .* at tau=2.5"):
        qbm_channel(bad, 250)


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


@pytest.mark.parametrize("cfg,batches", [(HIGH, 1), (LOW, 2)], ids=["high", "low"])
def test_trajectory_evaluates_each_ei_batch_once(monkeypatch, cfg, batches):
    # one pair batch, E1 at -(b + i tau)/x and at its mirror (b - i tau)/x,
    # per cutoff over each chunk's nodes and interior Lobatto points (3
    # arguments a row at high T, 6 at low T, plus the node each seam shares;
    # Gamma reads the same batch), and one scalar pair,
    # E1(-b/x) and E1(b/x), per cutoff for the constants Ei(+-b/x).  The pair
    # is all that qbm imports from specfun.  A fresh copy of the configuration,
    # so that no earlier test has cached its constants
    assert [name for name in vars(qbm) if name.startswith("expint")] == ["expint_e1_pair"]
    cfg = dataclasses.replace(cfg)
    array_points, scalar_calls = [], []

    def counting(original):
        def count(z):
            if np.ndim(z):
                array_points.append(np.size(z))
            else:
                scalar_calls.append(z)
            return original(z)
        return count

    monkeypatch.setattr(qbm, "expint_e1_pair", counting(qbm.expint_e1_pair))
    traj = imaginarity_trajectory(cfg, 100.0)
    intervals = len(traj.tau) - 1
    chunks = [min(qbm._CHUNK, intervals - lo) for lo in range(0, intervals, qbm._CHUNK)]
    assert len(chunks) == 3
    assert array_points == [3 * n + 1 for n in chunks for _ in range(batches)]
    assert sum(array_points) == batches * (3 * intervals + len(chunks))
    assert scalar_calls == [-b / cfg.x for b in (1.0, cfg.cutoff_shift)[:batches]]


@pytest.mark.parametrize("cfg,cutoffs", [(HIGH, 1), (LOW, 2)], ids=["high", "low"])
def test_ei_constants_are_worked_out_once_per_configuration(monkeypatch, cfg, cutoffs):
    # two coefficient calls on one configuration make one scalar pair call per
    # cutoff; an equal copy is another instance, with its own cache
    calls = []

    def counting(z):
        calls.append(z)
        return expint_e1_pair(z)

    monkeypatch.setattr(qbm, "expint_e1_pair", counting)
    t = np.linspace(0.0, 5.0, 11)
    for fresh in (dataclasses.replace(cfg), dataclasses.replace(cfg)):
        first, second = coefficients(fresh, t), coefficients(fresh, t)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
    scalars = [z for z in calls if not np.ndim(z)]
    assert scalars == 2 * [-b / cfg.x for b in (1.0, cfg.cutoff_shift)[:cutoffs]]
    assert len(calls) - len(scalars) == 4 * cutoffs  # the array batches


def ei_direct(w):
    """Ei(w) = -E1(-w) + i pi sgn(Im w), real on the axis, from its own pair call."""
    w = np.asarray(w, dtype=complex)
    e_p = -expint_e1_pair(-w)[0] + 1j * np.pi * np.sign(w.imag)
    return np.where(w.imag == 0, e_p.real, e_p)


def test_ei_constants_equal_ei_and_e1_bit_for_bit():
    # the cached (-Re E1(-b/x), -Re E1(b/x)) against Ei(b/x) and -E1(b/x), each
    # from its own scalar call, for b/x in [1e-3, 700] and beside the seams of
    # the expansions (|w| = 2, 5, 40, 80, 200); a low-T configuration at
    # theta 1e3 gives both cutoffs, b = 1 and 1.001
    def bits(v):
        return np.float64(v).view(np.int64)

    seams = np.outer([2.0, 5.0, 40.0, 80.0, 200.0], [1 - 1e-12, 1 + 1e-12]).ravel()
    targets = np.concatenate([np.geomspace(1e-3, 700.0, 301), seams])
    seen = 0
    for v in targets:
        cfg = QbmConfig(alpha=0.03, x=1.001 / v, theta=1e3, regime="low")
        assert [row[0] for row in cfg._baths] == [1.0, cfg.cutoff_shift]
        for b, *_, (ei_pos, ei_neg) in cfg._baths:
            assert bits(ei_pos) == bits(ei_direct(b / cfg.x).real)
            assert bits(ei_neg) == bits(-expint_e1_pair(b / cfg.x)[0].real)
            seen += 1
    assert seen == 2 * len(targets)


def _bath_terms_direct(cfg, t):
    """(Delta, Pi) summed over the bath copies in ``_bath_terms``'s association,
    each copy from four batches evaluated directly: Ei((b +- i t)/x) and
    E1((b -+ i t)/x), whose sums and differences are 2 Re and 2i Im exactly,
    with the constants Ei(+-b/x) from their own calls."""
    x = cfg.x
    for i, (b, s, sign, w, _) in enumerate(cfg._baths):
        g, g_c = (ei_direct((b + 1j * u * t) / x) for u in (1.0, -1.0))
        k, k_c = (expint_e1_pair((b - 1j * u * t) / x)[0] for u in (1.0, -1.0))
        ei_b, ei_mb = ei_direct(b / x).real, ei_direct(-b / x).real
        down, up = 2.0 * s * np.exp(-b / x), sign * 2.0 * s * np.exp(b / x)
        d = down * ((g - g_c).imag / 2.0) - up * ((k - k_c).imag / 2.0)
        p = down * (ei_b - (g + g_c).real / 2.0) + up * ((k + k_c).real / 2.0 + ei_mb)
        if w:
            boundary = w * t / (b * b + t * t)
            d, p = d + np.cos(t / x) * boundary, p + np.sin(t / x) * boundary
        delta, pi_ = (delta + d, pi_ + p) if i else (d, p)
    return delta, pi_


@pytest.mark.parametrize("x", [0.5, 0.7, 0.9])
def test_conjugate_ei_batches_equal_direct_evaluation(x):
    # Ei(conj z) == conj(Ei(z)) stands in for the -i tau batch, and
    # i pi - E1((1 - i tau)/x) for Ei((-1 + i tau)/x); evaluating all four
    # Ei arguments directly stays here as the reference
    t = qbm._lobatto_points(qbm._make_grid(60.0, 0.01))
    assert t[0] == 0.0
    direct = [ei_direct((s + 1j * sign * t) / x)
              for s in (1.0, -1.0) for sign in (1.0, -1.0)]
    e_p, k = qbm._ei_pairs(t, x)
    assert np.array_equal(e_p, direct[0]) and np.array_equal(np.conj(e_p), direct[1])
    assert np.array_equal(k, expint_e1_pair((1.0 - 1j * t) / x)[0])
    off = t > 0
    assert np.array_equal(1j * np.pi - k[off], direct[2][off])
    assert np.array_equal(np.conj(1j * np.pi - k[off]), direct[3][off])
    # every bath copy of both regimes: one at high T, two at low T
    for cfg in (QbmConfig(alpha=0.03, x=x, theta=100.0),
                QbmConfig(alpha=0.03, x=x, theta=10.0, regime="low")):
        terms = qbm._bath_terms(cfg, t, (e_p, k))
        for got, want in zip(terms, _bath_terms_direct(cfg, t)):
            assert np.array_equal(got, want)


def _corrupt_wbar(monkeypatch, entry, value, horizon, node):
    """Make the walk over the grid 0, 0.01, ..., ``horizon`` read a Wbar whose
    ``entry`` at the grid node ``node`` is ``value(Wbar)``.

    The walk hands each chunk's Wbar, a view of the whole array, to
    ``_formula`` first; the corruption goes in there, in place, so the
    formula, the cross-check and the asymmetry check all read it.
    """
    target = qbm._make_grid(horizon, qbm.DEFAULT_STEP)[node]
    original = qbm._formula

    def corrupted(x, tau, big_gamma, wbar):
        for j in np.flatnonzero(tau == target):
            wbar[entry + (j,)] = value(wbar[..., j])
        return original(x, tau, big_gamma, wbar)

    monkeypatch.setattr(qbm, "_formula", corrupted)


@pytest.mark.parametrize(
    "value", [lambda w: w[0, 1] + 1e-6, lambda w: np.nan], ids=["off-by-1e-6", "nan"]
)
def test_corrupted_wbar_entry_fails_cross_check(monkeypatch, value):
    # one off-diagonal entry: the formula reads N12 = 2 Wbar[0, 1], the
    # generic measure the symmetrized N
    _corrupt_wbar(monkeypatch, (0, 1), value, 5.0, 250)  # the middle node
    with pytest.raises(FormulaInconsistencyError):
        imaginarity_trajectory(HIGH, 5.0)


def test_trajectory_reports_wbar_asymmetry(short_trajectory):
    assert 0.0 <= short_trajectory.wbar_asymmetry <= qbm.ASYMMETRY_TOL


def test_asymmetric_wbar_entry_fails_the_asymmetry_check(monkeypatch):
    # Wbar[1, 0] = -3 Wbar[0, 1] leaves |N12| of the symmetrized N equal to
    # the formula's |2 Wbar[0, 1]|, so only the asymmetry check can see it
    _corrupt_wbar(monkeypatch, (1, 0), lambda w: -3.0 * w[0, 1], 5.0, 250)
    with pytest.raises(IntegrationResolutionError, match="asymmetry .* at tau=2.5"):
        imaginarity_trajectory(HIGH, 5.0)


#: Horizon 100 is 10,001 nodes in three chunks: the node after the origin,
#: the seam node that the first two chunks share, and the horizon node.
CHUNKED_NODES = pytest.mark.parametrize("node", [1, qbm._CHUNK, 10_000],
                                        ids=["first", "seam", "horizon"])


@CHUNKED_NODES
def test_corrupted_wbar_entry_fails_cross_check_in_every_chunk(monkeypatch, node):
    tau = qbm._make_grid(100.0, qbm.DEFAULT_STEP)[node]
    _corrupt_wbar(monkeypatch, (0, 1), lambda w: w[0, 1] + 1e-6, 100.0, node)
    with pytest.raises(FormulaInconsistencyError, match=rf"disagree by .* at tau={tau:g}$"):
        imaginarity_trajectory(HIGH, 100.0)


@CHUNKED_NODES
def test_asymmetric_wbar_entry_fails_the_asymmetry_check_in_every_chunk(monkeypatch, node):
    tau = qbm._make_grid(100.0, qbm.DEFAULT_STEP)[node]
    _corrupt_wbar(monkeypatch, (1, 0), lambda w: -3.0 * w[0, 1], 100.0, node)
    with pytest.raises(IntegrationResolutionError, match=rf"asymmetry .* at tau={tau:g}$"):
        imaginarity_trajectory(HIGH, 100.0)


def test_cross_check_fails_on_nan_formula_value():
    traj = imaginarity_trajectory(HIGH, 5.0)
    x = HIGH.x
    direct = (
        np.abs(np.exp(-traj.gamma_capital / 2.0) * np.sin(traj.tau / x))
        + 0.5 * np.abs(np.exp(-traj.gamma_capital) * np.sin(2.0 * traj.tau / x))
        + np.abs(2.0 * traj.wbar[0, 1])
    )
    nodes = (x, traj.tau, traj.gamma_capital, traj.wbar)
    assert qbm._cross_check(*nodes, direct) <= qbm.CROSS_CHECK_TOL
    direct[7] = np.nan
    with pytest.raises(FormulaInconsistencyError):
        qbm._cross_check(*nodes, direct)


def test_trajectory_is_immutable():
    traj = imaginarity_trajectory(HIGH, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.wbar = np.zeros_like(traj.wbar)
    for array in (traj.tau, traj.gamma_capital, traj.wbar):
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 1.0


TRAJECTORY_COLUMNS = ("tau", "ic", "gamma_capital", "wbar", "n12", "term_t21", "term_t12t22",
                      "cross_check_error", "wbar_asymmetry")


#: 0.01 and 0.02 are grids of 2 and 3 nodes; 0.61-0.63 end 1, 2 and 3
#: intervals after a seam of chunk length 6 (and 2, 3 and 4 after one of
#: the odd length 5); 0.604 and 60.004 end on a short interval, and 60.004
#: spans two chunks of the default length.
@pytest.mark.parametrize("horizon", [0.01, 0.02, 0.61, 0.62, 0.63, 0.604, 60.004])
@pytest.mark.parametrize("cfg", [HIGH, LOW], ids=["high", "low"])
def test_chunk_length_does_not_change_the_trajectory(monkeypatch, tmp_path, cfg, horizon):
    default = qbm._CHUNK
    monkeypatch.setattr(qbm, "_CHUNK", 1 << 20)  # the whole grid in one chunk
    whole = imaginarity_trajectory(cfg, horizon)
    whole.write_csv(tmp_path / "whole.csv")
    for chunk in (2, 5, 6, default) if horizon < 1.0 else (default,):
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
    for chunk in (2, 5, 6, 100):
        monkeypatch.setattr(qbm, "_CHUNK", chunk)
        got = imaginarity_trajectory(STRONG, 300.0, step=0.5)
        for name in TRAJECTORY_COLUMNS:
            assert np.array_equal(getattr(got, name), getattr(whole, name)), (chunk, name)


def test_rebasing_changes_only_rounding(monkeypatch):
    # below Gamma ~ 700 the unscaled weights e^Gamma are still finite
    rebased = imaginarity_trajectory(STRONG, 300.0, step=0.5)
    monkeypatch.setattr(qbm, "_REBASE", np.inf)
    plain = imaginarity_trajectory(STRONG, 300.0, step=0.5)
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
    assert np.max(np.abs(late - steady)) <= 1e-7 * abs(steady)  # 3.4e-8 at x 0.5


def test_peak_memory_grows_by_at_most_200_bytes_a_node(tmp_path):
    # the per-node output (tau, Gamma and Wbar) is 48 bytes a node; every
    # other array is one chunk or one CSV block long
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


def test_one_chunk_of_the_trajectory_peaks_below_5_mb():
    # one full _CHUNK of intervals at three points each (2.89 MB traced; 4.59 MB
    # on four refined points with Simpson, 5.45 MB when it computed every half)
    horizon = qbm._CHUNK * qbm.DEFAULT_STEP
    tracemalloc.start()
    try:
        traj = imaginarity_trajectory(HIGH, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.tau) == qbm._CHUNK + 1
    assert peak < 5.0e6, f"{peak / 1e6:.2f} MB"


@pytest.mark.parametrize(
    "values",
    [
        np.array([1.0, np.nan]),
        np.array([1.0, np.inf]),
        np.array([np.inf - np.inf]),
        np.array([-np.inf, np.inf]),
    ],
    ids=["nan-real", "inf-real-zero-imag", "nan-residue", "inf-inf"],
)
def test_real_checked_rejects_non_finite(values):
    with pytest.raises(qbm.ClosedFormError, match="gamma"):
        qbm._real_checked(values, "gamma")
    assert np.array_equal(qbm._real_checked(np.array([2.0, -3.0]), "Pi"), [2.0, -3.0])


@pytest.mark.parametrize("cfg", [
    QbmConfig(alpha=0.3, x=0.5, theta=100.0), QbmConfig(alpha=1.0, x=0.9, theta=100.0),
] + PANEL_CONFIGS, ids=["alpha0.3-x0.5", "alpha1-x0.9", "panel-x0.5", "panel-x0.7",
                        "panel-x0.9", "panel-low-T"])
def test_n12_matches_five_point_lobatto_at_a_tenth_of_the_step(cfg):
    # max |N12 error| / max |N12| at horizon 60: at most 3.4e-9 at step 0.1
    # and 3.5e-13 at step 0.01 (Simpson on four refined points: 4.9e-7 and
    # 4.9e-11); Wbar[1, 0] holds the same bound
    for step, bound in ((0.1, 5e-9), (0.01, 1e-11)):
        traj = imaginarity_trajectory(cfg, 60.0, step)
        want = wbar_lobatto5(cfg, traj.tau)
        scale = np.max(np.abs(want[0, 1]))
        for entry in ((0, 1), (1, 0)):
            assert np.max(np.abs(traj.wbar[entry] - want[entry])) <= bound * scale, (step, entry)


def test_n12_matrix_route_matches_scalar_oracle():
    traj = imaginarity_trajectory(HIGH, 30.0)
    oracle = n12_scalar_oracle(traj)
    assert np.max(np.abs(2.0 * traj.wbar[0, 1] - oracle)) <= 1e-9


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


def _blocks_text(values: np.ndarray) -> str:
    """The CSV text of the rows ``values`` as ``write_csv`` writes it."""
    blocks = (qbm._csv_block(values[lo:lo + qbm._CSV_ROWS])
              for lo in range(0, len(values), qbm._CSV_ROWS))
    return b"".join(block.tobytes() for block in blocks).decode()


def test_csv_rows_match_per_value_format(monkeypatch):
    rows = _csv_edge_values()
    fallback = []
    fmt = qbm._fmt
    monkeypatch.setattr(qbm, "_fmt", lambda v: fallback.append(v) or fmt(v))
    got = _blocks_text(rows).splitlines(keepends=True)
    assert len(got) == len(rows)
    for row, line in zip(rows.tolist(), got):
        assert line == _per_value_line(row), row
    # the exact ties at the 13th digit go through the tie fallback, and
    # random values only within its margin, about one in a thousand
    assert 0 < len(fallback) < 0.03 * rows.size


@pytest.mark.parametrize("miss", [-1, 1])
def test_csv_block_corrects_an_exponent_estimate_off_by_one(monkeypatch, miss):
    # log10 misses floor(log10 |v|) by one at most; a miss on every field
    # must still give the per-value text
    rows = _csv_edge_values()[::50]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + miss)
    assert _blocks_text(rows) == "".join(_per_value_line(row) for row in rows.tolist())


_LARGEST = float(np.finfo(float).max)
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _exact_ties(q: int):
    # odd N = 5**q * j with 12-digit N // 2, so that j / 2**(q+1) = N / (2 * 10**q)
    # is a double whose 13th significant digit is an exact final 5
    lo, hi = -(-(2 * 10**11 + 1) // 5**q), (2 * 10**12 - 1) // 5**q
    return st.integers(lo // 2, (hi - 1) // 2).map(lambda i: (2 * i + 1) / 2.0 ** (q + 1))


_POWERS = st.integers(-323, 308).map(lambda k: float(f"1e{k}"))
_CSV_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=5e-324, max_value=_SMALLEST_NORMAL),
    _POWERS,
    _POWERS.map(lambda v: float(np.nextafter(v, 0.0))),
    _POWERS.map(lambda v: float(np.nextafter(v, np.inf))),
    st.floats(min_value=1e12, max_value=_LARGEST),
    st.integers(0, 17).flatmap(_exact_ties),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda rows: st.lists(st.tuples(_CSV_VALUE, st.booleans()),
                          min_size=6 * rows, max_size=6 * rows)))
def test_csv_block_matches_per_value_format(fields):
    values = np.array([-v if negative else v for v, negative in fields]).reshape(-1, 6)
    assert _blocks_text(values) == "".join(_per_value_line(row) for row in values.tolist())


@pytest.mark.parametrize("cfg, horizon, step, smallest", [
    (LOW, 60.0, 0.01, 1e-11),  # the low-T figure panel
    (QbmConfig(alpha=1.0, x=0.9, theta=100.0), 300.0, 0.5, 1e-70),  # strongly damped
], ids=["low-T-panel", "damped"])
def test_csv_file_matches_per_value_format(tmp_path, cfg, horizon, step, smallest):
    traj = imaginarity_trajectory(cfg, horizon, step)
    path = tmp_path / "t.csv"
    traj.write_csv(path)
    rows = np.column_stack([traj.tau, traj.ic, traj.gamma_capital, traj.n12,
                            traj.term_t21, traj.term_t12t22])
    assert np.min(np.abs(rows[rows != 0.0])) < smallest
    expected = "tau,Ic,Gamma,N12,term_T21,term_T12T22\n" + "".join(
        _per_value_line(row) for row in rows.tolist())
    assert path.read_bytes() == expected.encode()


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


@pytest.mark.parametrize("cfg", [
    HIGH, QbmConfig(alpha=0.3, x=0.9, theta=100.0), QbmConfig(alpha=1.0, x=0.5, theta=100.0),
    LOW, QbmConfig(alpha=0.03, x=0.9, theta=3.0, regime="low"),
    QbmConfig(alpha=0.3, x=0.7, theta=1.0, regime="low"),
], ids=["high-0.03-0.5", "high-0.3-0.9", "high-1-0.5", "low-0.03-0.5", "low-0.03-0.9",
        "low-0.3-0.7"])
def test_steady_state_n12_matches_50_digit_limits(cfg):
    want = steady_state_n12_mp(cfg)
    assert abs(steady_state_n12(cfg) - want) <= 1e-12 * abs(want)
    # the limits against the 40-digit closed forms at tau = 1e14
    gamma, delta, pi_ = mp_coefficients(cfg, 1e14)
    two_over_x = 2.0 / cfg.x
    at_1e14 = -(delta * two_over_x + pi_ * 2.0 * gamma) / ((2.0 * gamma) ** 2 + two_over_x**2)
    assert abs(at_1e14 - want) <= 1e-14 * abs(want)


def test_high_temperature_saturation():
    """The mean of I_c over ten periods changes < 5% between two windows
    (theta = 100).  The early window starts where the T-term envelope
    (2/pi) e^{-Gamma/2}, the window mean of |e^{-Gamma/2} sin(tau/x)|, is
    half of 5% of the steady |N12|; the late one starts twice as late.
    Gamma ~ 2 gamma_inf tau there, with gamma_inf read off the closed form
    at three probes near tau = 2000, independently of the closed-form limits
    of ``steady_state_n12``.  Halving the grid step
    moves both window means by less than 0.1%."""
    probes = np.array([2000.0, 2000.0 + np.pi * HIGH.x / 2, 2000.0 + np.pi * HIGH.x])
    gamma_inf = float(np.mean(coefficients(HIGH, probes)[0]))
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
