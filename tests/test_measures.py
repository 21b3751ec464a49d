import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussimag.gaussian import (
    GaussianChannel,
    GaussianState,
    GaussianSuperchannel,
    ValidationError,
    apply_channel,
    apply_superchannel,
    channel_realness,
    sample_random_channel,
    sample_random_state,
    sample_random_superchannel,
    superchannel_patterns,
)
from gaussimag.linalg import trace_norms
from gaussimag.measures import (
    CM_EIGENVALUE_BOUND,
    DISPLACEMENT_BOUND,
    STEP_EPSILON,
    MeasureReport,
    SupSearchConfig,
    _channel_terms,
    channel_measure_ic,
    channel_measure_ic_stack,
    channel_measure_id,
    channel_measure_is,
    state_measure_ign,
    step_function,
)


def mode_permutation(n: int) -> np.ndarray:
    """The permutation P_n sending (q1,p1,...,qn,pn) to (q1..qn,p1..pn):
    p[k, 2k] = p[n+k, 2k+1] = 1 (0-based)."""
    p = np.zeros((2 * n, 2 * n))
    for k in range(n):
        p[k, 2 * k] = 1.0
        p[n + k, 2 * k + 1] = 1.0
    return p


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


def scalar_ign(s: GaussianState) -> tuple:
    """Reference I_Gn of one state: (value, covariance term, displacement term)."""
    det_qq = np.linalg.det(s.covariance[0::2, 0::2])
    det_pp = np.linalg.det(s.covariance[1::2, 1::2])
    if det_qq <= 0 or det_pp <= 0:
        raise ValidationError("covariance sector block has non-positive determinant")
    cov_term = 1.0 - np.linalg.det(s.covariance) / (det_qq * det_pp)
    mom = float(np.sum(np.abs(s.displacement[1::2])))
    scale = float(np.max(np.abs(s.displacement)))
    disp_term = 0.0 if abs(mom) <= STEP_EPSILON * max(1.0, scale) else 1.0
    return float(cov_term + disp_term), float(cov_term), disp_term


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_state_measure_equals_scalar_reference(n):
    rng = np.random.default_rng(15 + n)
    states = [sample_random_state(n, rng, real=bool(k % 2)) for k in range(50)]
    states.append(GaussianState(n, np.zeros(2 * n), np.eye(2 * n)))
    for s in states:
        report = state_measure_ign(s)
        value, cov_term, disp_term = scalar_ign(s)
        assert report.value == value
        assert report.breakdown == [("covariance", cov_term), ("displacement", disp_term)]


def test_state_measure_rejects_singular_blocks():
    with pytest.raises(ValidationError):
        state_measure_ign(GaussianState(1, np.zeros(2), np.diag([0.0, 1.0])))


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
            trace_norms(ts[n:, :n])
            + trace_norms(ts[:n, n:]) * trace_norms(ts[n:, n:])
            + trace_norms(ns[:n, n:])
            + float(np.linalg.norm(c.d[1::2]))
        )
        assert batched[i] == pytest.approx(oracle, abs=1e-12)
        steps = [step_function(v, scales[k][i]) for k, v in enumerate(terms)]
        assert steps == [v for _, v in channel_measure_id(c).breakdown]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ic_equals_svd_sums_exactly(n):
    # trace_norms takes |entry| for the 1x1 blocks of one mode; every
    # value stays == to summing the singular values of each block
    def svd_sum(m):
        return np.sum(np.linalg.svd(m, compute_uv=False), axis=-1)

    rng = np.random.default_rng(200 + n)
    chans = [sample_random_channel(n, rng) for _ in range(100)]
    t, nm = np.stack([c.T for c in chans]), np.stack([c.N for c in chans])
    d = np.stack([c.d for c in chans])
    want = (svd_sum(t[:, 1::2, 0::2]) + svd_sum(t[:, 0::2, 1::2]) * svd_sum(t[:, 1::2, 1::2])
            + svd_sum(nm[:, 0::2, 1::2]) + np.linalg.norm(d[:, 1::2], axis=-1))
    assert np.array_equal(channel_measure_ic_stack(t, nm, d), want)
    assert [channel_measure_ic(c).value for c in chans] == want.tolist()


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


_FLAGS = st.sampled_from(["any", "completely-real", "covariant-real"])
_SHARES = st.sampled_from([0.0, 1e-9, 1e-3, 0.5, 1.0])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(n=st.integers(1, 4), seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
       flags=st.tuples(_FLAGS, _FLAGS), shares=st.tuples(_SHARES, _SHARES, _SHARES))
def test_ic_continuity_bound(n, seeds, flags, shares):
    # I_c is continuous: each summand is a trace norm of a block or a product
    # of two, so |I_c(phi) - I_c(phi')| <= ||dT21|| + ||dT12|| ||T22||
    # + ||T12'|| ||dT22|| + ||dN12|| + ||dd_p||_2.  phi' moves each of T, N
    # and d a share of the way towards a second random channel.
    c = sample_random_channel(n, seeds[0], flags[0])
    other = sample_random_channel(n, seeds[1], flags[1])
    t2, n2, d2 = (a + share * (b - a) for a, b, share in
                  zip((c.T, c.N, c.d), (other.T, other.N, other.d), shares))
    p = mode_permutation(n)
    ts, ts2, ns, ns2 = (p @ m @ p.T for m in (c.T, t2, c.N, n2))
    dt, dn = ts2 - ts, ns2 - ns
    bound = (
        trace_norms(dt[n:, :n])
        + trace_norms(dt[:n, n:]) * trace_norms(ts[n:, n:])
        + trace_norms(ts2[:n, n:]) * trace_norms(dt[n:, n:])
        + trace_norms(dn[:n, n:])
        + float(np.linalg.norm(d2[1::2] - c.d[1::2]))
    )
    moved = GaussianChannel(n, t2, n2, d2)
    diff = abs(channel_measure_ic(c).value - channel_measure_ic(moved).value)
    assert diff <= bound + 1e-12 * max(1.0, bound)


def test_breakdown_sums_enforced():
    with pytest.raises(ValueError):
        MeasureReport(value=1.0, kind="bogus", breakdown=[("a", 0.2), ("b", 0.2)])


# ---------------------------------------------------------------------------
# I_s lower bound
# ---------------------------------------------------------------------------

SMALL_SEARCH = SupSearchConfig(restarts=4, iterations_per_restart=40)


def _clip_spd(v, low, high):
    sym = 0.5 * (v + v.T)
    w, q = np.linalg.eigh(sym)
    return q @ np.diag(np.clip(w, low, high)) @ q.T


def _random_sym(n, rng, scale):
    g = rng.standard_normal((n, n)) * scale / max(n, 1)
    return 0.5 * (g + g.T)


def _real_state(n, d_pos, v1, v2):
    d0 = np.zeros(2 * n)
    d0[0::2] = d_pos
    nu = np.zeros((2 * n, 2 * n))
    nu[0::2, 0::2] = v1
    nu[1::2, 1::2] = v2
    return GaussianState(n, d0, nu)


def scalar_is_search(c, cfg):
    """Reference I_s search: one restart after another, one state at a time.

    Returns (value, breakdown, final value of each restart, accepted moves).
    """
    n = c.modes
    bound, d_bound = CM_EIGENVALUE_BOUND, DISPLACEMENT_BOUND

    def objective(state):
        value, cov_term, disp_term = scalar_ign(apply_channel(c, state))
        return value, [("covariance", cov_term), ("displacement", disp_term)]

    best, best_breakdown = objective(GaussianState.vacuum(n))
    finals, accepted = [], 0
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(child)
        d_pos = rng.uniform(-d_bound, d_bound, n)
        v1 = _clip_spd(_random_sym(n, rng, bound), 1.0, bound)
        v2 = _clip_spd(_random_sym(n, rng, bound), 1.0, bound)
        value, breakdown = objective(_real_state(n, d_pos, v1, v2))
        step_disp = 0.5 * max(d_bound, 1.0)
        step_cm = 0.25 * (bound - 1.0)
        for it in range(cfg.iterations_per_restart):
            move = it % 3
            d_new, v1_new, v2_new = d_pos, v1, v2
            if move == 0:
                d_new = d_pos.copy()
                d_new[rng.integers(n)] += rng.uniform(-step_disp, step_disp)
                np.clip(d_new, -d_bound, d_bound, out=d_new)
            elif move == 1:
                v1_new = _clip_spd(v1 + _random_sym(n, rng, step_cm), 1.0, bound)
            else:
                v2_new = _clip_spd(v2 + _random_sym(n, rng, step_cm), 1.0, bound)
            trial, trial_breakdown = objective(_real_state(n, d_new, v1_new, v2_new))
            if trial > value:
                d_pos, v1, v2, value, breakdown = d_new, v1_new, v2_new, trial, trial_breakdown
                accepted += 1
            step_disp *= 0.985
            step_cm *= 0.985
        finals.append(value)
        if value > best:
            best, best_breakdown = value, breakdown
    return best, best_breakdown, finals, accepted


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed,restarts,iterations", [(7, 1, 1), (3, 5, 17), (11, 12, 50)])
def test_is_search_equals_scalar_reference(n, seed, restarts, iterations):
    rng = np.random.default_rng(1000 * n + seed)
    cfg = SupSearchConfig(restarts=restarts, iterations_per_restart=iterations, seed=seed)
    for flag in ("any", "any", "covariant-real"):
        c = sample_random_channel(n, rng, flag)
        report = channel_measure_is(c, cfg)
        value, breakdown, finals, accepted = scalar_is_search(c, cfg)
        assert report.value == value
        assert report.breakdown == breakdown
        stats = report.diagnostics
        assert stats["objective_evaluations"] == 1 + restarts * (1 + iterations)
        assert stats["accepted_moves"] == accepted <= restarts * iterations
        winner = stats["winning_restart"]
        if winner is None:
            assert all(v <= value for v in finals)
        else:
            assert finals[winner] == report.value
            assert all(v < report.value for v in finals[:winner])


def test_is_search_statistics_at_default_budget():
    c = sample_random_channel(2, 5)
    report = channel_measure_is(c)
    stats = report.diagnostics
    assert stats["objective_evaluations"] == 6433
    assert 0 < stats["accepted_moves"] <= 32 * 200
    assert stats["winning_restart"] in range(32)


def test_is_search_rejects_non_finite_channel_output():
    # finite matrices whose output covariance T nu T^T overflows
    c = GaussianChannel(1, 1e200 * np.eye(2), np.eye(2), np.zeros(2))
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="non-finite"):
        channel_measure_is(c, SMALL_SEARCH)


def test_is_search_rejects_singular_output_blocks():
    c = GaussianChannel(1, np.zeros((2, 2)), np.diag([0.0, 1.0]), np.zeros(2))
    with pytest.raises(ValidationError, match="non-positive determinant"):
        channel_measure_is(c, SMALL_SEARCH)


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
    ident = superchannel_patterns(GaussianSuperchannel.identity())
    assert ident.in_fo
    assert ident.in_fo1
    scaled = GaussianSuperchannel.identity()
    scaled.A = 2.0 * np.eye(2)
    patterns = superchannel_patterns(scaled)
    assert not patterns.in_fo
    assert not patterns.in_fo1


def test_fo1_sampler_members():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        patterns = superchannel_patterns(
            sample_random_superchannel(n, rng, "real-eq9", unit_norm_a=True))
        assert patterns.in_fo
        assert patterns.in_fo1


def test_fo_requires_realness():
    patterns = superchannel_patterns(sample_random_superchannel(1, 5, "any"))
    if not patterns.is_real:
        assert not patterns.in_fo


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
