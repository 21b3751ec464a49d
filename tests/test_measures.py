import numpy as np
import pytest

from gaussimag.gaussian import (
    GaussianChannel,
    GaussianState,
    GaussianSuperchannel,
    ValidationError,
    apply_superchannel,
    channel_realness,
    sample_random_channel,
    sample_random_superchannel,
)
from gaussimag.linalg import mode_permutation, trace_norm
from gaussimag.measures import (
    MeasureReport,
    StepThreshold,
    SupSearchConfig,
    _channel_terms,
    channel_measure_ic,
    channel_measure_ic_stack,
    channel_measure_id,
    channel_measure_is,
    in_fo,
    in_fo1,
    state_measure_ign,
)


def rotation_channel(theta: float) -> GaussianChannel:
    c, s = np.cos(theta), np.sin(theta)
    return GaussianChannel(1, [[c, s], [-s, c]], np.eye(2), np.zeros(2))


# ---------------------------------------------------------------------------
# state measure
# ---------------------------------------------------------------------------

def test_state_measure_correlated_example():
    # det nu = 3, sector determinants 2 * 2, so the ratio term is 1 - 3/4
    s = GaussianState(1, np.zeros(2), [[2.0, 1.0], [1.0, 2.0]])
    report = state_measure_ign(s)
    assert report.value == pytest.approx(0.25, abs=1e-14)
    assert dict(report.breakdown)["displacement"] == 0.0


def test_state_measure_displaced_vacuum():
    report = state_measure_ign(GaussianState(1, [0.0, 1.0], np.eye(2)))
    assert report.value == pytest.approx(1.0, abs=1e-14)
    assert dict(report.breakdown)["covariance"] == pytest.approx(0.0, abs=1e-14)


def test_state_measure_vanishes_on_real_states():
    from gaussimag.gaussian import sample_random_state

    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        s = sample_random_state(n, rng, real=True)
        assert state_measure_ign(s).value <= 1e-10


def test_state_measure_range():
    from gaussimag.gaussian import sample_random_state

    rng = np.random.default_rng(14)
    for _ in range(100):
        s = sample_random_state(int(rng.integers(1, 4)), rng)
        v = state_measure_ign(s).value
        assert -1e-12 <= v <= 2.0 + 1e-12


def test_state_measure_rejects_singular_blocks():
    with pytest.raises(ValidationError):
        state_measure_ign(
            GaussianState(1, np.zeros(2), np.diag([0.0, 1.0])), StepThreshold()
        )


# ---------------------------------------------------------------------------
# discrete and continuous channel measures
# ---------------------------------------------------------------------------

def test_id_examples():
    assert channel_measure_id(GaussianChannel.identity()).value == 0.0
    assert channel_measure_id(rotation_channel(np.pi / 2)).value == 1.0
    # a generic rotation trips both T summands
    assert channel_measure_id(rotation_channel(0.4)).value == 2.0
    d_cases = {
        (0.0, 0.0): 0.0,
        (1.0, 0.0): 0.0,
        (0.0, 1.0): 1.0,
    }
    for d, expected in d_cases.items():
        c = GaussianChannel.amplifying(1, tau=2.0, d=np.array(d))
        assert channel_measure_id(c).value == expected


def test_ic_rotation_closed_form():
    for theta in np.linspace(-3.0, 3.0, 25):
        got = channel_measure_ic(rotation_channel(theta)).value
        expected = abs(np.sin(theta)) + 0.5 * abs(np.sin(2 * theta))
        assert got == pytest.approx(expected, abs=1e-12)


def test_ic_amplifying_counts_momentum_displacement():
    # the displacement summand is the trace (l2) norm of the momentum
    # part (-1.5, 2.0): sqrt(1.5^2 + 2^2) = 2.5
    c = GaussianChannel.amplifying(2, tau=3.0, d=np.array([0.5, -1.5, 0.0, 2.0]))
    report = channel_measure_ic(c)
    assert report.value == pytest.approx(2.5, abs=1e-12)
    assert dict(report.breakdown)["displacement"] == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_terms_match_per_channel_measures(n):
    rng = np.random.default_rng(100 + n)
    h = StepThreshold()
    chans = [
        sample_random_channel(n, rng, rng.choice(["any", "completely-real", "covariant-real"]))
        for _ in range(200)
    ]
    t = np.stack([c.T for c in chans])
    nm = np.stack([c.N for c in chans])
    d = np.stack([c.d for c in chans])
    assert np.any(np.abs(d[:, 1::2]) > 0.1)
    t21, t12t22, n12, disp, scales = _channel_terms(t, nm, d)
    batched = channel_measure_ic_stack(t, nm, d)
    p = mode_permutation(n)
    for i, c in enumerate(chans):
        ic = channel_measure_ic(c)
        terms = (t21[i], t12t22[i], n12[i], disp[i])
        assert list(terms) == pytest.approx([v for _, v in ic.breakdown], abs=1e-12)
        assert batched[i] == pytest.approx(ic.value, abs=1e-12)
        # independent route: sort by the permutation matrix, 2-d trace norms
        ts, ns = p @ c.T @ p.T, p @ c.N @ p.T
        oracle = (
            trace_norm(ts[n:, :n])
            + trace_norm(ts[:n, n:]) * trace_norm(ts[n:, n:])
            + trace_norm(ns[:n, n:])
            + float(np.linalg.norm(c.d[1::2]))
        )
        assert batched[i] == pytest.approx(oracle, abs=1e-12)
        steps = [h.step(v, scales[k][i]) for k, v in enumerate(terms)]
        assert steps == [v for _, v in channel_measure_id(c, h).breakdown]


def test_ic_zero_iff_real_500_channels():
    rng = np.random.default_rng(51)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        flag = rng.choice(["any", "completely-real", "covariant-real"])
        c = sample_random_channel(n, rng, flag)
        is_real = channel_realness(c).is_real
        ic = channel_measure_ic(c).value
        idv = channel_measure_id(c).value
        if is_real:
            assert ic <= 1e-10
            assert idv == 0.0
        else:
            assert ic > 1e-10
            assert idv >= 1.0


def test_id_bounds_and_steps():
    rng = np.random.default_rng(53)
    for _ in range(100):
        c = sample_random_channel(int(rng.integers(1, 4)), rng)
        v = channel_measure_id(c).value
        assert v in (0.0, 1.0, 2.0, 3.0, 4.0)


def test_ic_continuity():
    # entrywise perturbations move I_c by at most ~(matrix dimension)^2
    rng = np.random.default_rng(57)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        c = sample_random_channel(n, rng)
        eps = 1e-6
        c2 = GaussianChannel(
            n,
            c.T + rng.uniform(-eps, eps, c.T.shape),
            c.N,
            c.d + rng.uniform(-eps, eps, c.d.shape),
        )
        diff = abs(channel_measure_ic(c2).value - channel_measure_ic(c).value)
        assert diff <= 4.0 * (2 * n) ** 2 * eps


def test_breakdown_sums_enforced():
    with pytest.raises(ValueError):
        MeasureReport(value=1.0, kind="bogus", breakdown=[("a", 0.2), ("b", 0.2)])


# ---------------------------------------------------------------------------
# I_s lower bound
# ---------------------------------------------------------------------------

SMALL_SEARCH = SupSearchConfig(restarts=4, iterations_per_restart=40)


def test_is_zero_on_real_channels():
    rng = np.random.default_rng(61)
    for _ in range(5):
        c = sample_random_channel(1, rng, "covariant-real")
        assert channel_measure_is(c, SMALL_SEARCH).value <= 1e-9


def test_is_detects_momentum_displacement():
    c = GaussianChannel.amplifying(1, tau=2.0, d=np.array([0.0, 0.7]))
    report = channel_measure_is(c, SMALL_SEARCH)
    assert report.value == pytest.approx(1.0, abs=1e-9)
    assert report.kind == "I_s lower bound"


def test_is_positive_on_rotation():
    assert channel_measure_is(rotation_channel(0.8), SMALL_SEARCH).value > 0.1


def test_is_deterministic_and_monotone_in_restarts():
    c = rotation_channel(0.6)
    low = channel_measure_is(c, SupSearchConfig(restarts=4, iterations_per_restart=30, seed=7))
    low2 = channel_measure_is(c, SupSearchConfig(restarts=4, iterations_per_restart=30, seed=7))
    high = channel_measure_is(c, SupSearchConfig(restarts=8, iterations_per_restart=30, seed=7))
    assert low.value == low2.value
    # substreams are a prefix of the larger budget, so the bound cannot drop
    assert high.value >= low.value


# ---------------------------------------------------------------------------
# free-operation membership
# ---------------------------------------------------------------------------

def test_fo_examples():
    ident = GaussianSuperchannel.identity()
    assert in_fo(ident)
    assert in_fo1(ident)
    scaled = GaussianSuperchannel.identity()
    scaled.A = 2.0 * np.eye(2)
    assert not in_fo(scaled)
    assert not in_fo1(scaled)


def test_fo1_sampler_members():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        sup = sample_random_superchannel(n, rng, "real-eq9", unit_norm_a=True)
        assert in_fo(sup)
        assert in_fo1(sup)


def test_fo_requires_realness():
    sup = sample_random_superchannel(1, 5, "any")
    from gaussimag.gaussian import superchannel_is_real

    if not superchannel_is_real(sup):
        assert not in_fo(sup)


# ---------------------------------------------------------------------------
# monotonicity under free operations (module-scale; the acceptance suite
# repeats these audits at full trial counts)
# ---------------------------------------------------------------------------

def test_id_monotone_under_real_superchannels():
    rng = np.random.default_rng(81)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        sup = sample_random_superchannel(n, rng, rng.choice(["real-eq8", "real-eq9"]))
        c = sample_random_channel(n, rng)
        before = channel_measure_id(c).value
        after = channel_measure_id(apply_superchannel(sup, c)).value
        assert after <= before + 1e-12


def test_ic_monotone_under_fo1():
    rng = np.random.default_rng(83)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        sup = sample_random_superchannel(n, rng, "real-eq9", unit_norm_a=True)
        c = sample_random_channel(n, rng)
        before = channel_measure_ic(c).value
        after = channel_measure_ic(apply_superchannel(sup, c)).value
        assert after <= before + 1e-9


def test_is_monotone_under_fo1_fixed_seed():
    rng = np.random.default_rng(89)
    cfg = SupSearchConfig(restarts=6, iterations_per_restart=60, seed=11)
    for _ in range(12):
        sup = sample_random_superchannel(1, rng, "real-eq9", unit_norm_a=True)
        c = sample_random_channel(1, rng)
        before = channel_measure_is(c, cfg).value
        after = channel_measure_is(apply_superchannel(sup, c), cfg).value
        assert after <= before + 1e-9
