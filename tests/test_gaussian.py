import json

import numpy as np
import pytest

from gaussimag.gaussian import (
    DEFAULT_PATTERN_TOL,
    GaussianChannel,
    GaussianState,
    GaussianSuperchannel,
    RealnessReport,
    apply_channel,
    apply_superchannel,
    channel_realness,
    compose,
    decompose_superchannel,
    from_document,
    pattern_holds,
    sample_random_channel,
    sample_random_state,
    sample_random_superchannel,
    state_realness,
    superchannel_patterns,
    to_document,
    violated_constraint,
)
from gaussimag.linalg import DimensionError, max_abs


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

def test_validate_state_examples():
    assert not violated_constraint(GaussianState.vacuum())
    assert violated_constraint(GaussianState(1, np.zeros(2), 0.5 * np.eye(2)))
    assert not violated_constraint(GaussianState(1, np.zeros(2), 3.0 * np.eye(2)))


def test_validate_channel_examples():
    assert not violated_constraint(GaussianChannel.identity())
    assert not violated_constraint(GaussianChannel.amplifying(1, tau=2.0))
    assert violated_constraint(
        GaussianChannel(1, 2.0 * np.eye(2), np.zeros((2, 2)), np.zeros(2))
    )


def test_validate_superchannel_examples():
    assert not violated_constraint(GaussianSuperchannel.identity())
    # an O that is orthogonal but not symplectic must be rejected
    bad_o = np.diag([1.0, -1.0])
    bad = GaussianSuperchannel(1, np.eye(2), bad_o, 10.0 * np.eye(2), np.zeros(2))
    assert violated_constraint(bad)


def _channel(t, n):
    return GaussianChannel(1, t, n, np.zeros(2))


def _superchannel(a, o, y):
    return GaussianSuperchannel(1, a, o, y, np.zeros(2))


@pytest.mark.parametrize("obj,name", [
    (GaussianState(1, np.zeros(2), [[1.0, 0.5], [0.0, 1.0]]), "covariance symmetry"),
    (GaussianState(1, np.zeros(2), 0.5 * np.eye(2)), "nu+iDelta"),
    (_channel(np.eye(2), [[1.0, 1.0], [0.0, 1.0]]), "N symmetry"),
    (_channel(np.eye(2), np.diag([-1.0, 0.0])), "N>=0"),
    (_channel(2.0 * np.eye(2), np.zeros((2, 2))), "N+iDelta-iTDeltaT^T"),
    (_superchannel(np.eye(2), 2.0 * np.eye(2), np.eye(2)), "OO^T=I"),
    (_superchannel(np.eye(2), np.eye(2), [[1.0, 1.0], [0.0, 1.0]]), "Y symmetry"),
    (_superchannel(2.0 * np.eye(2), np.eye(2), np.zeros((2, 2))), "Y+iDelta-iADeltaA^T"),
    (_superchannel(np.eye(2), np.diag([1.0, -1.0]), 10.0 * np.eye(2)), "iDelta-iODeltaO^T"),
    (GaussianSuperchannel.identity(), ""),
])
def test_violated_constraint_names(obj, name):
    assert violated_constraint(obj) == name


@pytest.mark.parametrize("eig,name", [(-1e-8, "N>=0"), (-1e-10, "")])
def test_validate_channel_at_the_psd_floor(eig, name):
    # the floor is PSD_TOL * max(1, ||N||) = 1e-9: -1e-8 is below it, -1e-10 within
    c = _channel(np.eye(2), np.diag([eig, 0.0]))
    assert violated_constraint(c) == name


def squeezer(r):
    """The pure squeezer T = S(r) along the diagonal quadratures, N = 0."""
    t = [[np.cosh(r), np.sinh(r)], [np.sinh(r), np.cosh(r)]]
    return _channel(t, np.zeros((2, 2)))


@pytest.mark.parametrize("r,name", [(8.0, ""), (10.0, "N+iDelta-iTDeltaT^T")])
def test_pure_squeezer_against_the_fixed_floor(r, name):
    # T Delta T^T = Delta exactly, but its round-off grows as ||T||^2 = e^{2r}
    # while the floor does not: at r = 10 it sinks the CP form below -1e-9
    assert violated_constraint(squeezer(r)) == name


def test_state_shape_errors():
    with pytest.raises(DimensionError):
        GaussianState(1, np.zeros(3), np.eye(2))
    with pytest.raises(DimensionError):
        GaussianChannel(2, np.eye(4), np.eye(4), np.zeros(2))


# ---------------------------------------------------------------------------
# actions and composition
# ---------------------------------------------------------------------------

def test_apply_identity_channel():
    s = sample_random_state(2, 0)
    out = apply_channel(GaussianChannel.identity(2), s)
    assert np.allclose(out.displacement, s.displacement)
    assert np.allclose(out.covariance, s.covariance)


def test_apply_amplifying_on_vacuum():
    out = apply_channel(GaussianChannel.amplifying(1, tau=2.0), GaussianState.vacuum())
    assert np.allclose(out.covariance, 3.0 * np.eye(2))


def test_apply_channel_preserves_validity():
    for seed in range(30):
        c = sample_random_channel(2, seed)
        s = sample_random_state(2, seed + 1000)
        assert not violated_constraint(apply_channel(c, s))


def test_compose_identity_neutral():
    c = sample_random_channel(1, 3)
    for other in (compose(GaussianChannel.identity(), c), compose(c, GaussianChannel.identity())):
        assert np.allclose(other.T, c.T)
        assert np.allclose(other.N, c.N)
        assert np.allclose(other.d, c.d)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(9)
    for _ in range(10):
        outer = sample_random_channel(2, rng)
        inner = sample_random_channel(2, rng)
        s = sample_random_state(2, rng)
        via_compose = apply_channel(compose(outer, inner), s)
        via_sequence = apply_channel(outer, apply_channel(inner, s))
        assert np.allclose(via_compose.displacement, via_sequence.displacement, atol=1e-9)
        assert np.allclose(via_compose.covariance, via_sequence.covariance, atol=1e-9)


def test_identity_superchannel_neutral():
    c = sample_random_channel(2, 17)
    out = apply_superchannel(GaussianSuperchannel.identity(2), c)
    assert np.allclose(out.T, c.T)
    assert np.allclose(out.N, c.N)
    assert np.allclose(out.d, c.d)


def test_decompose_identity():
    pre, post = decompose_superchannel(GaussianSuperchannel.identity())
    for part in (pre, post):
        assert np.allclose(part.T, np.eye(2))
        assert np.allclose(part.N, 0)
        assert np.allclose(part.d, 0)


def test_decompose_direct_substitution():
    s = GaussianSuperchannel(
        1, np.eye(2), np.eye(2), 2.0 * np.eye(2), np.array([1.0, 0.0])
    )
    pre, post = decompose_superchannel(s)
    assert np.allclose(pre.T, np.eye(2))
    assert np.allclose(post.N, 2.0 * np.eye(2))
    assert np.allclose(post.d, [1.0, 0.0])


def test_superchannel_decomposition_equivalence():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        sup = sample_random_superchannel(n, rng)
        pre, post = decompose_superchannel(sup)
        for _ in range(2):
            c = sample_random_channel(n, rng)
            direct = apply_superchannel(sup, c)
            chained = compose(post, compose(c, pre))
            assert np.allclose(direct.T, chained.T, atol=1e-9)
            assert np.allclose(direct.N, chained.N, atol=1e-9)
            assert np.allclose(direct.d, chained.d, atol=1e-9)


def test_apply_superchannel_preserves_validity():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        sup = sample_random_superchannel(n, rng)
        c = sample_random_channel(n, rng)
        assert not violated_constraint(apply_superchannel(sup, c))


def test_mode_mismatch_rejected():
    with pytest.raises(DimensionError):
        apply_channel(GaussianChannel.identity(1), GaussianState.vacuum(2))
    with pytest.raises(DimensionError):
        apply_superchannel(GaussianSuperchannel.identity(1), GaussianChannel.identity(2))


# ---------------------------------------------------------------------------
# realness predicates
# ---------------------------------------------------------------------------

def test_identity_channel_is_covariant_real():
    report = channel_realness(GaussianChannel.identity())
    assert report.is_real
    assert report.is_covariant_real
    assert report.violations == []


def test_rotation_channel_not_real():
    c = GaussianChannel(1, [[0.0, 1.0], [-1.0, 0.0]], np.eye(2), np.zeros(2))
    report = channel_realness(c)
    assert not report.is_real
    assert report.violations


def test_amplifying_with_momentum_displacement_not_real():
    c = GaussianChannel.amplifying(1, tau=2.0, d=np.array([0.0, 1.0]))
    report = channel_realness(c)
    assert not report.is_real
    assert any(label == "d_momentum" for label, _, _ in report.violations)


def test_state_realness_examples():
    assert state_realness(GaussianState.vacuum())
    assert state_realness(GaussianState(1, [1.0, 0.0], np.eye(2)))
    assert not state_realness(GaussianState(1, [0.0, 1.0], np.eye(2)))


def test_superchannel_realness_examples():
    identity = superchannel_patterns(GaussianSuperchannel.identity())
    assert identity.is_real
    assert not identity.is_imaginarity_breaking
    bad = sample_random_superchannel(1, 0, "real-eq9")
    bad.A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not superchannel_patterns(bad).is_real


# The loops below are the reference for the realness patterns: each pattern
# lists its offending entries block by block, in row-major order.

def _vector_violations(v, label, tol):
    thresh = tol * max(1.0, max_abs(v))
    out = []
    for i in range(1, len(v), 2):
        if abs(v[i]) > thresh:
            out.append((label, (i, i), float(abs(v[i]))))
    return out


def _block_violations(m, rows, cols, label, tol):
    thresh = tol * max(1.0, max_abs(m))
    out = []
    for i in rows:
        for j in cols:
            if abs(m[i, j]) > thresh:
                out.append((label, (i, j), float(abs(m[i, j]))))
    return out


def _patterns_reference(v, m, x, names, tol):
    """(common, erase, mix) violations of the vector v, noise m and transfer x."""
    dim = len(v)
    mom, pos = range(1, dim, 2), range(0, dim, 2)
    common = (_vector_violations(v, f"{names[0]}_momentum", tol)
              + _block_violations(m, pos, mom, f"{names[1]}_qp", tol))
    erase = _block_violations(x, mom, range(dim), f"{names[2]}_momentum_rows", tol)
    mix = (_block_violations(x, pos, mom, f"{names[2]}_mixing", tol)
           + _block_violations(x, mom, pos, f"{names[2]}_mixing", tol))
    return common, erase, mix


def _channel_realness_reference(c, tol):
    common, erase, mix = _patterns_reference(c.d, c.N, c.T, ("d", "N", "T"), tol)
    completely = not common and not erase
    covariant = not common and not mix
    report = RealnessReport(completely or covariant, completely, covariant)
    if not report.is_real:
        report.violations = common + (erase if len(erase) <= len(mix) else mix)
        if not report.violations:
            report.violations = erase + mix
    return report


def _near_threshold(m, rng, tol=DEFAULT_PATTERN_TOL):
    """``m`` scaled, with a few entries set just below, at and just above
    the pattern threshold tol * max(1, max |m|)."""
    m = rng.choice([1e-3, 1.0, 1e3]) * np.array(m, dtype=float)
    thresh = tol * max(1.0, max_abs(m))
    for _ in range(int(rng.integers(0, 4))):
        idx = tuple(int(rng.integers(k)) for k in m.shape)
        m[idx] = rng.choice([-1.0, 1.0]) * thresh * rng.choice([1 - 1e-6, 1.0, 1 + 1e-6])
    return m


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_channel_realness_equals_loop_reference(n):
    rng = np.random.default_rng(500 + n)
    kinds = set()
    for _ in range(60):
        for flag in ("any", "completely-real", "covariant-real"):
            c = sample_random_channel(n, rng, flag)
            near = GaussianChannel(n, _near_threshold(c.T, rng), _near_threshold(c.N, rng),
                                   _near_threshold(c.d, rng))
            for chan in (c, near):
                report = channel_realness(chan)
                assert report == _channel_realness_reference(chan, DEFAULT_PATTERN_TOL)
                kinds.add((report.is_completely_real, report.is_covariant_real,
                           bool(report.violations)))
    assert {(True, False, False), (False, True, False), (False, False, True)} <= kinds


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pattern_holds_on_stacks_equals_loop_reference(n):
    # one answer per vector or matrix of a stack, each with its own threshold
    rng = np.random.default_rng(700 + n)
    dim, tol = 2 * n, DEFAULT_PATTERN_TOL
    pos, mom = range(0, dim, 2), range(1, dim, 2)
    blocks = {"qp": [(pos, mom)], "pq": [(mom, pos)], "pp": [(mom, mom)],
              "momentum_rows": [(mom, range(dim))], "mixing": [(pos, mom), (mom, pos)]}
    chans = [sample_random_channel(n, rng, flag) for flag in
             12 * ["any", "completely-real", "covariant-real"]]
    ts = np.stack([_near_threshold(c.T, rng) for c in chans]).reshape(6, 6, dim, dim)
    ds = np.stack([_near_threshold(c.d, rng) for c in chans]).reshape(6, 6, dim)
    for pattern, pattern_blocks in blocks.items():
        want = [[not any(_block_violations(t, rows, cols, "", tol) for rows, cols in pattern_blocks)
                 for t in row] for row in ts]
        assert pattern_holds(ts, pattern).tolist() == want
        assert [pattern_holds(t, pattern) for t in ts[0]] == want[0]
    want = [[not _vector_violations(d, "", tol) for d in row] for row in ds]
    assert pattern_holds(ds, "momentum").tolist() == want
    assert {v for row in want for v in row} == {False, True}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_state_and_superchannel_patterns_equal_loop_reference(n):
    rng = np.random.default_rng(600 + n)
    tol = DEFAULT_PATTERN_TOL
    seen = set()
    for _ in range(40):
        s = sample_random_state(n, rng, real=bool(rng.integers(2)))
        s = GaussianState(n, _near_threshold(s.displacement, rng),
                          _near_threshold(s.covariance, rng))
        common, _, _ = _patterns_reference(s.displacement, s.covariance, s.covariance,
                                           ("d0", "nu", "nu"), tol)
        assert state_realness(s) is not common
        # real-eq8 twice, so that the seeded draws cover four superchannels
        for flag in ("any", "real-eq8", "real-eq9", "real-eq8"):
            sup = sample_random_superchannel(n, rng, flag)
            sup = GaussianSuperchannel(n, *(_near_threshold(m, rng) for m in
                                            (sup.A, sup.O, sup.Y, sup.dbar)))
            common, erase, mix = _patterns_reference(sup.dbar, sup.Y, sup.A,
                                                     ("dbar", "Y", "A"), tol)
            _, _, mix_o = _patterns_reference(sup.dbar, sup.Y, sup.O, ("dbar", "Y", "O"), tol)
            expected = (not common, not erase, not mix and not mix_o)
            patterns = superchannel_patterns(sup)
            assert (patterns.momentum_pattern_dbar_Y, patterns.A_erases_momentum,
                    patterns.A_O_sector_preserving) == expected
            assert patterns.is_real is (expected[0] and (expected[1] or expected[2]))
            assert patterns.is_imaginarity_breaking is (expected[0] and expected[1])
            seen.add(expected)
    assert len(seen) >= 4


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generators_deterministic():
    a = sample_random_channel(2, 42)
    b = sample_random_channel(2, 42)
    assert np.array_equal(a.T, b.T)
    assert np.array_equal(a.N, b.N)
    assert np.array_equal(a.d, b.d)


@pytest.mark.parametrize("flag,branch", [
    ("completely-real", "is_completely_real"),
    ("covariant-real", "is_covariant_real"),
])
def test_channel_generator_realness_branches(flag, branch):
    for seed in range(30):
        c = sample_random_channel(2, seed, flag)
        report = channel_realness(c)
        assert getattr(report, branch)


def test_channel_generator_validity_500():
    rng = np.random.default_rng(101)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        flag = rng.choice(["any", "completely-real", "covariant-real"])
        assert not violated_constraint(sample_random_channel(n, rng, flag))


def test_superchannel_generator_validity_500():
    rng = np.random.default_rng(202)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        # real-eq8 is listed twice: the seeded draws pick among four entries
        flag = rng.choice(["any", "real-eq8", "real-eq9", "real-eq8"])
        sup = sample_random_superchannel(n, rng, flag)
        assert not violated_constraint(sup)
        if flag in ("real-eq8", "real-eq9"):
            assert superchannel_patterns(sup).is_real
        if flag == "real-eq8":
            assert superchannel_patterns(sup).is_imaginarity_breaking


# ---------------------------------------------------------------------------
# theorem spot checks (full-scale audits live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_theorem1_forward_spot():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        sup = sample_random_superchannel(n, rng, rng.choice(["real-eq8", "real-eq9"]))
        c = sample_random_channel(n, rng, rng.choice(["completely-real", "covariant-real"]))
        assert channel_realness(apply_superchannel(sup, c)).is_real


def test_theorem2_forward_spot():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        sup = sample_random_superchannel(n, rng, "real-eq8")
        c = sample_random_channel(n, rng, "any")
        assert channel_realness(apply_superchannel(sup, c)).is_real


def test_theorem1_converse_spot():
    rng = np.random.default_rng(41)
    found_violating = 0
    witnessed = 0
    while found_violating < 40:
        n = int(rng.integers(1, 4))
        sup = sample_random_superchannel(n, rng, "any")
        if superchannel_patterns(sup).is_real:
            continue
        found_violating += 1
        for _ in range(200):
            probe = sample_random_channel(
                n, rng, rng.choice(["completely-real", "covariant-real"])
            )
            if not channel_realness(apply_superchannel(sup, probe)).is_real:
                witnessed += 1
                break
    assert witnessed >= 0.95 * found_violating


def test_real_channels_preserve_state_realness():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        c = sample_random_channel(n, rng, rng.choice(["completely-real", "covariant-real"]))
        s = sample_random_state(n, rng, real=True)
        assert state_realness(s)
        assert state_realness(apply_channel(c, s))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_document_round_trip():
    # exact through JSON; the key order fixes the JSON of audit counterexamples
    for modes in (1, 2, 3, 4):
        objects = {
            ("displacement", "covariance"): sample_random_state(modes, 1),
            ("T", "N", "d"): sample_random_channel(modes, 2),
            ("A", "O", "Y", "d"): sample_random_superchannel(modes, 3, "real-eq9"),
        }
        for keys, obj in objects.items():
            doc = to_document(obj)
            assert list(doc) == ["kind", "modes", *keys]
            clone = from_document(json.loads(json.dumps(doc)))
            assert type(clone) is type(obj)
            assert clone.modes == obj.modes
            for name in ("displacement", "covariance", "T", "N", "d", "A", "O", "Y", "dbar"):
                if hasattr(obj, name):
                    assert np.array_equal(getattr(obj, name), getattr(clone, name))


def test_from_document_rejects_garbage():
    from gaussimag.gaussian import ValidationError

    with pytest.raises(ValidationError):
        from_document({"kind": "nonsense"})
    with pytest.raises(ValidationError):
        from_document([1, 2, 3])
    for doc, message in [
        ({"kind": "x"}, "unknown document kind 'x'"),
        ({"kind": "state"}, "malformed state document: 'modes'"),
        ({"kind": ["a"], "modes": 1}, "unknown document kind ['a']"),
        ({"kind": "channel", "modes": 1}, "malformed channel document: 'T'"),
    ]:
        with pytest.raises(ValidationError) as info:
            from_document(doc)
        assert str(info.value) == message
