"""Acceptance suite: the nine top-level criteria, one test each, in order.

Each test prints a single ``[criterion N] PASS/FAIL`` line (with the
measured detail and wall time) before asserting, so the verdict survives
in the log even when the assertion trips.
"""

import time

import numpy as np
import pytest

import gaussimag.qbm as qbm
from gaussimag.gaussian import (
    GaussianChannel,
    apply_superchannel,
    channel_realness,
    sample_random_channel,
    sample_random_superchannel,
    superchannel_is_real,
    validate_channel,
)
from gaussimag.linalg import symplectic_form
from gaussimag.measures import (
    SupSearchConfig,
    channel_measure_ic,
    channel_measure_id,
    channel_measure_is,
)
from gaussimag.qbm import (
    QbmConfig,
    coeff_delta_closed,
    coeff_delta_quadrature,
    coeff_gamma_closed,
    coeff_gamma_quadrature,
    coeff_pi_closed,
    coeff_pi_quadrature,
    solve_qbm,
)

FIGURE_CONFIGS = [
    QbmConfig(alpha=0.03, x=0.5, theta=100.0, regime="high"),
    QbmConfig(alpha=0.03, x=0.7, theta=100.0, regime="high"),
    QbmConfig(alpha=0.03, x=0.9, theta=100.0, regime="high"),
    QbmConfig(alpha=0.03, x=0.5, theta=10.0, regime="low"),
]
FIGURE_HORIZON = 60.0
LOW_CFG = FIGURE_CONFIGS[3]

# Fig. 1(b)/(d) steady values of I_c, quoted per panel entry
STEADY_PANELS = {
    "1b": [
        (QbmConfig(alpha=0.01, x=0.5, theta=100.0, regime="high"), 0.001),
        (QbmConfig(alpha=0.03, x=0.5, theta=100.0, regime="high"), 0.01),
        (QbmConfig(alpha=0.05, x=0.5, theta=100.0, regime="high"), 0.028),
    ],
    "1d": [
        (QbmConfig(alpha=0.03, x=0.5, theta=100.0, regime="high"), 0.01),
        (QbmConfig(alpha=0.03, x=0.7, theta=100.0, regime="high"), 0.024),
        (QbmConfig(alpha=0.03, x=0.9, theta=100.0, regime="high"), 0.042),
    ],
}

# Grid step of the late-window grids (windows at tau ~ 5e3 - 2e5): halving
# it moves every asserted window mean by less than 0.3%.
LONG_STEP = 0.5


def _verdict(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _ic_series(sol) -> np.ndarray:
    """The damped-oscillation I_c formula evaluated on the whole grid."""
    grid, big_gamma, x = sol.grid, sol.gamma_capital, sol.cfg.x
    term1 = np.abs(np.exp(-big_gamma / 2.0) * np.sin(grid / x))
    term2 = 0.5 * np.abs(np.exp(-big_gamma) * np.sin(2.0 * grid / x))
    return term1 + term2 + np.abs(2.0 * sol.wbar[0, 1])


def _window_width(cfg: QbmConfig) -> float:
    return 10.0 * np.pi * cfg.x


def _settled_start(cfg: QbmConfig, level: float) -> float:
    """The tau at which the T-term envelope (2/pi) e^{-Gamma/2} is level.

    (2/pi) e^{-Gamma/2} is the window mean of the leading T-term
    |e^{-Gamma/2} sin(tau/x)|.  Once the damping coefficient has settled,
    Gamma ~ 2 gamma_inf tau, with gamma_inf read off the closed form at
    large tau as ``steady_state_n12`` does.
    """
    probes = np.array([2000.0, 2000.0 + np.pi * cfg.x / 2, 2000.0 + np.pi * cfg.x])
    gamma_inf = float(np.mean(coeff_gamma_closed(cfg, probes)))
    return float(np.log(2.0 / (np.pi * level)) / gamma_inf)


def _window_report(sol, start: float) -> str:
    big_gamma = float(np.interp(start, sol.grid, sol.gamma_capital))
    envelope = 2.0 / np.pi * np.exp(-big_gamma / 2.0)
    return f"window from tau={start:.0f} (Gamma {big_gamma:.2f}, envelope {envelope:.2g})"


class _Grids:
    """Every trajectory grid of criteria 5-9, each built once."""

    def __init__(self):
        self.built = {}

    def get(self, cfg: QbmConfig, horizon: float, step: float = qbm.DEFAULT_STEP):
        key = (cfg, horizon, step)
        if key not in self.built:
            self.built[key] = solve_qbm(cfg, horizon, step)
        return self.built[key]

    def figure(self, cfg: QbmConfig):
        return self.get(cfg, FIGURE_HORIZON)

    def steady(self, cfg: QbmConfig, quoted: float):
        """Grid and window start of a criterion 6 entry: the window starts
        where the T-term envelope is 10% of the quoted value."""
        start = _settled_start(cfg, 0.1 * quoted)
        return self.get(cfg, start + _window_width(cfg), LONG_STEP), start

    def decay(self):
        """Grid, window start and first-period peak of criterion 7: the
        window starts where the T-term envelope is half the 0.1 * peak
        threshold."""
        figure = self.figure(LOW_CFG)
        peak = float(np.max(_ic_series(figure)[figure.grid <= np.pi * LOW_CFG.x]))
        start = _settled_start(LOW_CFG, 0.05 * peak)
        acc = self.get(LOW_CFG, start + _window_width(LOW_CFG), LONG_STEP)
        return acc, start, peak

    def every(self) -> dict:
        for cfg in FIGURE_CONFIGS:
            self.figure(cfg)
        for entries in STEADY_PANELS.values():
            for cfg, quoted in entries:
                self.steady(cfg, quoted)
        self.decay()
        return self.built


@pytest.fixture(scope="module")
def grids():
    return _Grids()


def test_criterion_1_amplifying_channel_formulas():
    start = time.perf_counter()
    search = SupSearchConfig(restarts=3, iterations_per_restart=30)
    worst_ic = 0.0
    checks = 0
    ok = True
    for n in (1, 2, 3):
        rng = np.random.default_rng(100 + n)
        for tau in (1.0, 2.0, 5.0):
            for variant in ("zero", "position", "momentum"):
                d = np.zeros(2 * n)
                if variant == "position":
                    d[0::2] = rng.uniform(-2, 2, n)
                elif variant == "momentum":
                    d = rng.uniform(-2, 2, 2 * n)
                c = GaussianChannel.amplifying(n, tau=tau, n_th=0.5, d=d)
                # the displacement summand is the trace (l2) norm of the
                # momentum displacement
                expected = float(np.linalg.norm(d[1::2]))
                worst_ic = max(
                    worst_ic, abs(channel_measure_ic(c).value - expected)
                )
                ok &= channel_measure_id(c).value == (
                    1.0 if variant == "momentum" else 0.0
                )
                is_val = channel_measure_is(c, search).value
                if variant == "momentum":
                    ok &= abs(is_val - 1.0) <= 1e-9
                else:
                    ok &= is_val <= 1e-9
                checks += 1
    elapsed = time.perf_counter() - start
    ok = ok and worst_ic <= 1e-12 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"{checks} amplifying-channel cases, worst I_c error {worst_ic:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_theorem_audits():
    start = time.perf_counter()
    violations = 0
    converse_total = 0
    converse_witnessed = 0
    for n in (1, 2, 3):
        rng = np.random.default_rng(200 + n)
        for _ in range(2000):
            sup = sample_random_superchannel(
                n, rng, "real-eq8" if rng.uniform() < 0.5 else "real-eq9"
            )
            chan = sample_random_channel(
                n, rng, "completely-real" if rng.uniform() < 0.5 else "covariant-real"
            )
            if not channel_realness(apply_superchannel(sup, chan)).is_real:
                violations += 1
        for _ in range(2000):
            sup = sample_random_superchannel(n, rng, "breaking")
            chan = sample_random_channel(n, rng, "any")
            if not channel_realness(apply_superchannel(sup, chan)).is_real:
                violations += 1
        while converse_total < 50 * n:
            sup = sample_random_superchannel(n, rng, "any")
            if superchannel_is_real(sup):
                continue
            converse_total += 1
            for _ in range(200):
                probe = sample_random_channel(
                    n, rng,
                    "completely-real" if rng.uniform() < 0.5 else "covariant-real",
                )
                if not channel_realness(apply_superchannel(sup, probe)).is_real:
                    converse_witnessed += 1
                    break
    elapsed = time.perf_counter() - start
    witness_rate = converse_witnessed / converse_total
    ok = violations == 0 and witness_rate >= 0.95 and elapsed < 60.0
    _verdict(
        2,
        ok,
        f"12000 forward pairs, {violations} counterexamples; converse witness "
        f"rate {witness_rate:.1%} over {converse_total} violating "
        f"superchannels; {elapsed:.1f}s",
    )


def test_criterion_3_monotonicity_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(300)
    id_violations = 0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        sup = sample_random_superchannel(
            n, rng, "real-eq8" if rng.uniform() < 0.5 else "real-eq9"
        )
        c = sample_random_channel(n, rng)
        if (
            channel_measure_id(apply_superchannel(sup, c)).value
            > channel_measure_id(c).value + 1e-9
        ):
            id_violations += 1
    ic_violations = 0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        sup = sample_random_superchannel(n, rng, "real-eq9", unit_norm_a=True)
        c = sample_random_channel(n, rng)
        if (
            channel_measure_ic(apply_superchannel(sup, c)).value
            > channel_measure_ic(c).value + 1e-9
        ):
            ic_violations += 1
    elapsed = time.perf_counter() - start
    ok = id_violations == 0 and ic_violations == 0 and elapsed < 30.0
    _verdict(
        3,
        ok,
        f"I_d violations {id_violations}/500, I_c violations "
        f"{ic_violations}/500; {elapsed:.1f}s",
    )


def test_criterion_4_closed_forms_vs_quadrature():
    start = time.perf_counter()
    taus = np.linspace(1.0, 20.0, 20)
    high = QbmConfig(alpha=0.03, x=0.5, theta=100.0, regime="high")
    low = QbmConfig(alpha=0.03, x=0.5, theta=10.0, regime="low")
    routes = [
        ("gamma", high, coeff_gamma_closed, coeff_gamma_quadrature, 1e-5),
        ("Delta_high", high, coeff_delta_closed, coeff_delta_quadrature, 1e-4),
        ("Pi_high", high, coeff_pi_closed, coeff_pi_quadrature, 1e-4),
        ("Delta_low", low, coeff_delta_closed, coeff_delta_quadrature, 1e-4),
        ("Pi_low", low, coeff_pi_closed, coeff_pi_quadrature, 1e-4),
    ]
    worst = {}
    for name, cfg, closed, quadrature, tol in routes:
        rel = 0.0
        for tau in taus:
            a, b = closed(cfg, float(tau)), quadrature(cfg, float(tau))
            rel = max(rel, abs(a - b) / max(abs(b), 1e-30))
        worst[name] = (rel, tol)
    elapsed = time.perf_counter() - start
    ok = all(rel <= tol for rel, tol in worst.values()) and elapsed < 120.0
    detail = ", ".join(f"{k} {rel:.1e}" for k, (rel, _) in worst.items())
    _verdict(4, ok, f"worst relative mismatches: {detail}; {elapsed:.1f}s")


def test_criterion_5_trajectory_formula_consistency(grids):
    start = time.perf_counter()
    worst = 0.0
    for cfg in FIGURE_CONFIGS:
        sol = grids.figure(cfg)
        direct = _ic_series(sol)
        half = np.exp(-sol.gamma_capital / 2.0)
        cos_, sin_ = np.cos(sol.grid / cfg.x), np.sin(sol.grid / cfg.x)
        for i in range(len(sol.grid)):
            t_mat = half[i] * np.array([[cos_[i], sin_[i]], [-sin_[i], cos_[i]]])
            chan = GaussianChannel(1, t_mat, 2.0 * sol.wbar[:, :, i], np.zeros(2))
            worst = max(worst, abs(channel_measure_ic(chan).value - direct[i]))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8
    _verdict(
        5,
        ok,
        f"4 configurations x 6001 grid points, worst |generic - formula| "
        f"= {worst:.2e}; {elapsed:.1f}s",
    )


def test_criterion_6_high_temperature_steady_values(grids):
    details = []
    ok = True
    for panel, entries in STEADY_PANELS.items():
        panel_start = time.perf_counter()
        for cfg, quoted in entries:
            sol, start = grids.steady(cfg, quoted)
            mean = float(np.mean(_ic_series(sol)[sol.grid >= start]))
            within = abs(mean - quoted) <= 0.25 * quoted
            ok &= within
            details.append(
                f"{panel} alpha={cfg.alpha} x={cfg.x}: mean {mean:.4g} vs "
                f"quoted {quoted} ({'ok' if within else 'off'}), "
                f"{_window_report(sol, start)}"
            )
        panel_elapsed = time.perf_counter() - panel_start
        ok &= panel_elapsed < 300.0
        details.append(f"panel {panel} {panel_elapsed:.0f}s")
    _verdict(6, ok, "; ".join(details))


def test_criterion_7_low_temperature_decay(grids):
    sol, start, peak = grids.decay()
    late = float(np.mean(_ic_series(sol)[sol.grid >= start]))
    ratio = late / peak
    _verdict(
        7,
        ratio < 0.1,
        f"late-window mean {late:.4g} vs first-period peak {peak:.4g}, "
        f"ratio {ratio:.3f} (required < 0.1), {_window_report(sol, start)}",
    )


def test_criterion_8_oscillation_period(grids):
    worst_offset = 0.0
    count = 0
    for cfg in FIGURE_CONFIGS:
        sol = grids.figure(cfg)
        grid = sol.grid
        step = grid[1] - grid[0]
        term1 = np.abs(np.exp(-sol.gamma_capital / 2.0) * np.sin(grid / cfg.x))
        # zero crossings of the T21 oscillation, located by sign change
        sine = np.sin(grid / cfg.x)
        crossings = grid[:-1][np.diff(np.sign(sine)) != 0]
        period = np.pi * cfg.x
        for tau_c in crossings:
            k = round(tau_c / period)
            if k == 0:
                continue
            worst_offset = max(worst_offset, abs(tau_c - k * period) / step)
            i = int(np.argmin(np.abs(grid - k * period)))
            assert term1[i] <= 1.5 * step / cfg.x
            count += 1
    ok = worst_offset <= 1.0
    _verdict(
        8,
        ok,
        f"{count} zero crossings across 4 configurations, worst offset from "
        f"k*pi*x = {worst_offset:.2f} grid steps",
    )


def test_criterion_9_full_physicality_sweep(grids):
    delta = symplectic_form(1)
    rng = np.random.default_rng(900)
    worst_rel = 0.0
    swept = 0
    channels = 0
    for key, sol in grids.every().items():
        swept += 1
        big_gamma = sol.gamma_capital
        n_mats = 2.0 * sol.wbar  # (2, 2, m)
        # T Delta T^T = e^{-Gamma} Delta for T = e^{-Gamma/2} R, so the
        # physicality form is N + i (1 - e^{-Gamma}) Delta: closed-form
        # eigenvalues for the whole grid at once
        n11, n22, n12 = n_mats[0, 0], n_mats[1, 1], n_mats[0, 1]
        off = 1.0 - np.exp(-big_gamma)
        mean = 0.5 * (n11 + n22)
        radius = np.sqrt(0.25 * (n11 - n22) ** 2 + n12**2 + off**2)
        min_eig = mean - radius
        scale = np.maximum(1.0, np.abs(mean) + radius)
        worst_rel = max(worst_rel, float(np.max(-min_eig / scale)))
        # independent spot checks through the generic validator
        for i in np.sort(rng.choice(len(sol.grid), size=200, replace=False)):
            tau = float(sol.grid[i])
            chan = qbm.qbm_channel(sol, tau)
            assert validate_channel(chan), f"{key} invalid at tau={tau}"
            channels += 1
    ok = swept >= 9 and worst_rel <= 1e-9
    _verdict(
        9,
        ok,
        f"{swept} trajectory grids fully checked in closed form (worst "
        f"relative negativity {worst_rel:.1e}), {channels} generic "
        f"validator spot checks",
    )
