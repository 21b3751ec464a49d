import numpy as np
import pytest
import scipy.special as sp

from gaussimag.specfun import (
    ConvergenceError,
    PoleError,
    QuadratureSpec,
    expint_ei,
    integrate_adaptive,
)

EULER_GAMMA = 0.5772156649015328606


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
    assert expint_ei(1.0).real == pytest.approx(ei_series_oracle(), abs=1e-14)
    assert expint_ei(1.0).imag == 0.0


def test_ei_small_argument_log_divergence():
    x = 1e-8
    assert expint_ei(x).real == pytest.approx(np.log(x) + EULER_GAMMA, abs=1e-7)


def test_ei_conjugate_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = complex(rng.uniform(-20, 20), rng.uniform(0.1, 20) * rng.choice([-1, 1]))
        assert expint_ei(np.conj(z)) == pytest.approx(np.conj(expint_ei(z)), rel=1e-10)


def test_ei_negative_axis_principal_value_is_real():
    v = expint_ei(-2.0)
    assert v.imag == 0.0
    # limits from above/below differ by the 2*pi*i branch jump
    above = expint_ei(complex(-2.0, 1e-12))
    below = expint_ei(complex(-2.0, -1e-12))
    assert above.imag == pytest.approx(np.pi, abs=1e-6)
    assert below.imag == pytest.approx(-np.pi, abs=1e-6)
    assert above.real == pytest.approx(v.real, abs=1e-6)


def test_poles_rejected():
    with pytest.raises(PoleError):
        expint_ei(0.0)


def test_ei_ci_si_interrelation():
    # Ei(iy) = Ci(y) + i (Si(y) + pi/2) for real y > 0
    for y in np.linspace(0.2, 25.0, 30):
        lhs = expint_ei(1j * y)
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
    assert complex(expint_ei(x)).real == pytest.approx(ei_oracle, rel=1e-8)


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
