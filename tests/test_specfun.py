import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussimag import qbm
from gaussimag.specfun import PoleError, expint_e1_pair
from oracles import ConvergenceError, QuadratureSpec, integrate_adaptive

EULER_GAMMA = 0.5772156649015328606


def ei_on_line(w) -> np.ndarray:
    """Ei(w) as the closed forms form it at (b + i tau)/x: ``qbm._ei_pairs``
    at b = Re w, tau = Im w and x = 1, which gives w back exactly."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    return qbm._ei_pairs(w.imag, 1.0, w.real)[0]


def ei_constants(v) -> tuple:
    """(Ei(v), Ei(-v)) for real v > 0 as ``QbmConfig._ei_scalars`` forms them
    at v = b/x: (-Re E1(-v), -Re E1(v)) from one pair call."""
    e, k = expint_e1_pair(-v)
    return -e.real, -k.real


def ei_series_oracle(terms: int = 60) -> float:
    """Ei(1) = gamma + sum 1/(k * k!), accumulated in exact rationals."""
    from fractions import Fraction

    acc = Fraction(0)
    fact = Fraction(1)
    for k in range(1, terms + 1):
        fact *= k
        acc += Fraction(1, k * fact)
    return EULER_GAMMA + float(acc)


def test_ei_at_one_matches_rational_series():
    (on_line,), (constant, _) = ei_on_line(1.0), ei_constants(1.0)
    for got in (on_line.real, constant):
        assert got == pytest.approx(ei_series_oracle(), abs=1e-14)
    assert on_line.imag == 0.0


def test_ei_small_argument_log_divergence():
    x = 1e-8
    for got in (ei_on_line(x)[0].real, ei_constants(x)[0]):
        assert got == pytest.approx(np.log(x) + EULER_GAMMA, abs=1e-7)


def test_ei_conjugate_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = complex(rng.uniform(-20, 20), rng.uniform(0.1, 20) * rng.choice([-1, 1]))
        assert ei_on_line(np.conj(z))[0] == pytest.approx(np.conj(ei_on_line(z)[0]), rel=1e-10)


def test_ei_negative_axis_principal_value_is_real():
    (v,) = ei_on_line(-2.0)
    assert v.imag == 0.0
    # limits from above/below differ by the 2*pi*i branch jump
    above, below = ei_on_line([complex(-2.0, 1e-12), complex(-2.0, -1e-12)])
    assert above.imag == pytest.approx(np.pi, abs=1e-6)
    assert below.imag == pytest.approx(-np.pi, abs=1e-6)
    assert above.real == pytest.approx(v.real, abs=1e-6)


#: The real zero of Ei, where its relative error is unbounded.
EI_REAL_ZERO = 0.37250741078136663


def mp_ei(w: complex) -> complex:
    """Ei(w) at 40 digits; the real principal value on the real axis."""
    with mp.workdps(40):
        if w.imag == 0:
            return complex(mp.ei(mp.mpf(w.real)))
        return complex(mp.ei(mp.mpc(w.real, w.imag)))


def trajectory_line_points() -> np.ndarray:
    # Re w = +-b/x as on the closed forms' lines, |Im w| up to 4e5
    re = np.geomspace(0.002, 700.0, 12)
    im = np.geomspace(1e-3, 4e5, 25)
    return (np.concatenate([re, -re])[:, None] + 1j * im[None, :]).ravel()


def seam_points() -> np.ndarray:
    # both sides of every region seam: |w| = 5, 40, 80, 200, the wedge edge
    # Re w = 2|Im w| and the left edge Re w = -2 of the small-|w| series
    angles = np.linspace(0.0, np.pi, 25)
    circles = [r * (1.0 + s) * np.exp(1j * angles)
               for r in (5.0, 40.0, 80.0, 200.0) for s in (-1e-12, 0.0, 1e-12)]
    edge = np.arctan(0.5)
    wedge = [r * np.exp(1j * (edge + s))
             for r in (0.5, 4.0, 5.5, 10.0, 39.9) for s in (-1e-9, 0.0, 1e-9, 1e-2)]
    left = [complex(-2.0 + s, y) for s in (-1e-12, 0.0, 1e-12) for y in (1e-6, 0.5, 1.5, 4.5)]
    return np.concatenate(circles + [np.array(wedge + left)])


def real_axis_points() -> np.ndarray:
    r = np.geomspace(1e-3, 700.0, 40)
    near_zero = EI_REAL_ZERO * (1.0 + np.array([-1e-3, -1e-9, 0.0, 1e-9, 1e-3]))
    return np.concatenate([r, -r, [-2.0, -5.0, 5.0, 40.0, -40.0, -80.0, -200.0], near_zero])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "points", [trajectory_line_points, seam_points, real_axis_points],
    ids=["trajectory-lines", "seams", "real-axis"],
)
def test_ei_matches_mpmath(points):
    # Ei by qbm._ei_pairs at the points, which lie on or above the real axis,
    # and at their conjugates; on the axis also by the route of the constants
    # Ei(+-b/x), which must agree with it bit for bit
    w = points().astype(complex)
    assert np.all(w.imag >= 0)
    want = np.array([mp_ei(v) for v in w])
    for z, ref in ((w, want), (np.conj(w), np.conj(want))):
        got = ei_on_line(z)
        assert np.array_equal(got, np.conj(ei_on_line(np.conj(z))))
        near_zero = np.abs(z - EI_REAL_ZERO) < 1e-2
        error = np.abs(got - ref)
        assert np.all(error[near_zero] <= 1e-15)
        assert np.all(error[~near_zero] <= 1e-14 * np.abs(ref[~near_zero]))
    on_axis = w.imag == 0
    assert np.all(ei_on_line(w[on_axis]).imag == 0.0)
    for v in w[on_axis].real:
        constant = ei_constants(abs(v))[0 if v > 0 else 1]
        assert constant == ei_on_line(v)[0].real


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "points", [trajectory_line_points, seam_points, real_axis_points],
    ids=["trajectory-lines", "seams", "real-axis"],
)
def test_e1_matches_mpmath(points):
    # E1 at z = -w; a +0 imaginary part takes the upper side of the cut, as
    # mpmath does.  The power series serves |z| < 5 left of Re z = 2, where
    # |E1| falls to ~0.03 while its terms reach ~30: up to 5e-14 relative
    # there, 5e-15 elsewhere
    z = -points().astype(complex)
    z = np.where(z.imag == 0, z.real + 0j, z)
    with mp.workdps(40):
        want = np.array([complex(mp.e1(mp.mpc(v.real, v.imag))) for v in z])
    got = expint_e1_pair(z)[0]
    assert np.array_equal(expint_e1_pair(np.conj(z))[0], np.conj(got))
    normal = np.abs(want) > 1e-300  # below it E1 is subnormal
    assert np.all(np.abs(got - want)[normal] <= 1e-13 * np.abs(want)[normal])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-310)


def in_continued_fraction_region(w: np.ndarray) -> np.ndarray:
    # |w| < 40 outside the power series' wedge Re w > 2|Im w| and its disc
    # |w| < 5 right of Re w = -2
    r = np.abs(w)
    series = (w.real > 2.0 * np.abs(w.imag)) | ((r < 5.0) & (w.real > -2.0))
    return (r < 40.0) & ~series


def continued_fraction_points(seed: int = 20261018, k: int = 150) -> np.ndarray:
    """About 1,500 seeded points w of the continued-fraction region, in both
    half-planes: an area-uniform bulk plus its edges."""
    rng = np.random.default_rng(seed)
    edge = np.arctan(0.5)  # the wedge edge Re w = 2|Im w|
    eps = np.geomspace(1e-15, 1e-3, k)

    def polar(r, lowest_angle):
        return r * np.exp(1j * rng.uniform(lowest_angle, np.pi, r.size))

    w = np.concatenate([
        polar(40.0 * np.sqrt(rng.uniform(size=5 * k)), edge),
        rng.uniform(5.0, 40.0, k) * np.exp(1j * (edge + eps)),  # just outside the wedge
        polar(40.0 * (1.0 - eps), edge),  # just under |w| = 40
        polar(5.0 * (1.0 + eps), edge),  # just over |w| = 5
        polar(5.0 * (1.0 - eps), np.arccos(-0.4)),  # just under |w| = 5, Re w <= -2
        -2.0 - rng.choice([0.0, 1.0], k) * eps + 1j * rng.uniform(0.0, np.sqrt(21.0), k),
    ])
    w = w[in_continued_fraction_region(w)]
    return np.where(rng.uniform(size=w.size) < 0.5, w, np.conj(w))


def test_e1_continued_fraction_region_matches_mpmath():
    # each point's depth follows the fraction's convergence rate; the rate
    # and the cap must hold 5e-15 relative over the whole region
    w = continued_fraction_points()
    assert 1400 <= w.size <= 1600
    z = -w
    with mp.workdps(40):
        want = np.array([complex(mp.e1(mp.mpc(v.real, v.imag))) for v in z])
    got = expint_e1_pair(z)[0]
    assert np.all(np.abs(got - want) <= 5e-15 * np.abs(want))


def depth_300_continued_fraction(z: np.ndarray) -> np.ndarray:
    t = np.zeros_like(z)
    for k in range(300, 0, -1):
        t = k * k / (z + (2 * k + 1) - t)
    return np.exp(-z) / (z + 1.0 - t)


@pytest.mark.parametrize("x,b", [(0.5, 1.0), (0.7, 1.0), (0.9, 1.0), (0.5, 1.1)],
                         ids=["panel-x0.5", "panel-x0.7", "panel-x0.9", "panel-low-T-shift"])
def test_e1_on_closed_form_lines_equals_depth_300(x, b):
    # the figure panels' E1 arguments (+-b - i tau)/x, formed as in
    # qbm._ei_pairs, and b/x, the mirror of the scalar pair of
    # QbmConfig._ei_scalars: a per-point depth must give the fixed depth-300
    # fraction's values bit for bit, so that the coefficients and the
    # panels' CSVs do not move
    tau = qbm._lobatto_points(qbm._make_grid(60.0, qbm.DEFAULT_STEP))
    z = np.concatenate([-((b + 1j * tau) / x), (b - 1j * tau) / x,
                        [-np.conj(np.asarray(-b / x, dtype=complex))]])
    z = z[in_continued_fraction_region(-z)]
    assert z.size > 10_000
    assert np.array_equal(expint_e1_pair(z)[0], depth_300_continued_fraction(z))


def closed_form_line_points() -> np.ndarray:
    # w = (b + i tau)/x as qbm._ei_pairs forms it, at the points where the walk
    # evaluates the four figure panels (horizon 60) and qbm-long (horizon 615.7)
    lines = []
    for horizon, x, b in [(60.0, 0.5, 1.0), (60.0, 0.7, 1.0), (60.0, 0.9, 1.0),
                          (60.0, 0.5, 1.1), (615.7, 0.5, 1.0)]:
        tau = qbm._lobatto_points(qbm._make_grid(horizon, qbm.DEFAULT_STEP))
        lines.append((b + 1j * tau) / x)
    return np.concatenate(lines)


def band_points() -> np.ndarray:
    # both sides of |w| = 40, 80 and 200 in every direction, and the bulk of
    # each band of the asymptotic series and of the region below it
    angles = np.linspace(-np.pi, np.pi, 49)
    radii = [r * (1.0 + s) for r in (40.0, 80.0, 200.0) for s in (-1e-12, -1e-15, 0.0, 1e-12)]
    radii += [1.0, 20.0, 39.0, 60.0, 150.0, 500.0, 700.0]
    return (np.array(radii)[:, None] * np.exp(1j * angles)[None, :]).ravel()


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)


def assert_pair_symmetric(z: np.ndarray) -> None:
    """expint_e1_pair(-conj z) is expint_e1_pair(z) reversed, and
    expint_e1_pair(conj z)[0] is conj(expint_e1_pair(z)[0]), bit for bit but
    for the sign of a zero imaginary part on the real axis, where E1 is real
    or sits on its cut."""
    got, mirror = expint_e1_pair(z)
    swapped = expint_e1_pair(-np.conj(z))
    conjugated = expint_e1_pair(np.conj(z))[0]
    off = z.imag != 0
    for value, want in ((mirror, swapped[0]), (got, swapped[1]), (np.conj(got), conjugated)):
        assert np.array_equal(bits(value[off]), bits(want[off]))
        assert np.array_equal(bits(value.real), bits(want.real))
        assert np.array_equal(value[~off], want[~off])


@pytest.mark.parametrize(
    "points",
    [band_points, closed_form_line_points, seam_points, trajectory_line_points, real_axis_points],
    ids=["bands", "closed-form-lines", "seams", "trajectory-lines", "real-axis"],
)
def test_e1_pair_equals_two_single_calls(points):
    # one asymptotic series serves E1(z) and E1(-conj z): each value of the
    # pair keeps the bits that a pair call at its own point gives first
    z = -points().astype(complex)
    r = np.abs(z)
    for lower, upper in ((0.0, 40.0), (40.0, 80.0), (80.0, 200.0), (200.0, np.inf)):
        assert np.any((r >= lower) & (r < upper))
    assert_pair_symmetric(z)


#: |w| beside the seams of the expansions, and anywhere in between.
_SEAM_RADII = st.sampled_from([5.0, 40.0, 80.0, 200.0]).flatmap(
    lambda r: st.sampled_from([-1e-12, -1e-15, 0.0, 1e-15, 1e-12]).map(lambda s: r * (1.0 + s)))
_RADII = st.one_of(_SEAM_RADII, st.floats(min_value=1e-3, max_value=700.0))
_ANGLES = st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi / 2, np.arctan(0.5)]),
                    st.floats(min_value=-np.pi, max_value=np.pi))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.tuples(_RADII, _ANGLES), min_size=1, max_size=12))
def test_e1_pair_swap_and_conjugate_symmetry(polar):
    z = np.array([r * np.exp(1j * a) for r, a in polar])
    assert_pair_symmetric(z)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "points", [trajectory_line_points, seam_points, real_axis_points],
    ids=["trajectory-lines", "seams", "real-axis"],
)
def test_e1_pair_matches_mpmath(points):
    # both values of the pair to the tolerance of test_e1_matches_mpmath
    z = -points().astype(complex)
    z = np.where(z.imag == 0, z.real + 0j, z)
    got = np.concatenate(expint_e1_pair(z))
    with mp.workdps(40):
        want = np.array([complex(mp.e1(mp.mpc(v.real, v.imag)))
                         for v in np.concatenate([z, -np.conj(z)])])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-310)


def test_e1_pair_scalar_in_scalars_out():
    got = expint_e1_pair(complex(-50.0, 3.0))
    assert all(isinstance(v, complex) for v in got)
    assert got == tuple(v[0] for v in expint_e1_pair(np.array([complex(-50.0, 3.0)])))
    assert got[1] == expint_e1_pair(complex(50.0, 3.0))[0]
    with pytest.raises(PoleError):
        expint_e1_pair(0.0)
    with pytest.raises(ValueError, match="non-finite"):
        expint_e1_pair(np.array([1.0, np.inf]))


def test_poles_rejected():
    with pytest.raises(PoleError):
        ei_on_line(0.0)
    with pytest.raises(PoleError):
        ei_constants(0.0)
    assert isinstance(expint_e1_pair(2.5)[0], complex)


def test_ei_ci_si_interrelation():
    # Ei(iy) = Ci(y) + i (Si(y) + pi/2) for real y > 0
    for y in np.linspace(0.2, 25.0, 30):
        (lhs,) = ei_on_line(1j * y)
        si, ci = sp.sici(y)
        rhs = ci + 1j * (si + np.pi / 2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def quad_oracle(f, a, b):
    return integrate_adaptive(f, a, b, QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12))


@pytest.mark.parametrize("x", np.linspace(0.25, 30.0, 50))
def test_special_functions_vs_defining_integrals(x):
    # Ei via principal value: Ei(x) = 2 Shi(x) - E1(x), both by quadrature
    ei_oracle = 2.0 * quad_oracle(lambda u: np.sinh(u) / u, 0.0, x) - quad_oracle(
        lambda u: np.exp(-u) / u, x, x + 80.0
    )
    for got in (ei_on_line(x)[0].real, ei_constants(x)[0]):
        assert got == pytest.approx(ei_oracle, rel=1e-8)


def test_integrate_adaptive_examples():
    assert integrate_adaptive(lambda u: np.exp(-u), 0.0, 30.0) == pytest.approx(
        1.0 - np.exp(-30.0), abs=1e-12
    )
    assert integrate_adaptive(lambda u: u * u, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )
    assert integrate_adaptive(np.sin, 0.0, 10.0 * np.pi) == pytest.approx(0.0, abs=1e-9)


def test_integrate_adaptive_deterministic():
    spec = QuadratureSpec()
    a = integrate_adaptive(lambda u: np.sin(3 * u) / (1 + u * u), 0.0, 15.0, spec)
    b = integrate_adaptive(lambda u: np.sin(3 * u) / (1 + u * u), 0.0, 15.0, spec)
    assert a == b


def test_integrate_adaptive_convergence_failure():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=2)
    with pytest.raises(ConvergenceError) as err:
        integrate_adaptive(lambda u: np.sin(40 * u) / (0.01 + abs(u - 0.7)), 0.0, 10.0, spec)
    assert np.isfinite(err.value.estimate)
    assert err.value.error_bound >= 0


def test_integrate_adaptive_rejects_empty_interval():
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, 1.0, 1.0)
