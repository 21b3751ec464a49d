import numpy as np
import pytest

from gaussimag.linalg import (
    DimensionError,
    is_psd,
    max_abs,
    min_eigenvalue,
    sigma_blocks,
    spectral_norm,
    symplectic_form,
    trace_norms,
)
from test_measures import mode_permutation


def test_symplectic_form_one_mode():
    assert np.array_equal(symplectic_form(1), [[0, 1], [-1, 0]])


def test_symplectic_form_direct_sum():
    d1 = symplectic_form(1)
    d2 = symplectic_form(2)
    assert d2.shape == (4, 4)
    assert np.array_equal(d2[:2, :2], d1)
    assert np.array_equal(d2[2:, 2:], d1)
    assert np.array_equal(d2[:2, 2:], np.zeros((2, 2)))


@pytest.mark.parametrize("n", range(1, 9))
def test_symplectic_form_algebra(n):
    d = symplectic_form(n)
    assert np.max(np.abs(d + d.T)) == 0
    assert np.max(np.abs(d @ d + np.eye(2 * n))) == 0
    assert np.max(np.abs(d @ d.T - np.eye(2 * n))) == 0


# The sector-sorting permutation is the independent oracle of
# test_measures.py; these check the oracle itself.

def test_mode_permutation_one_mode_is_identity():
    assert np.array_equal(mode_permutation(1), np.eye(2))


def test_mode_permutation_two_modes():
    p = mode_permutation(2)
    assert np.array_equal(p @ np.array([1.0, 2.0, 3.0, 4.0]), [1, 3, 2, 4])


@pytest.mark.parametrize("n", range(1, 9))
def test_mode_permutation_sorts_and_is_orthogonal(n):
    p = mode_permutation(n)
    v = np.arange(1.0, 2 * n + 1)
    expected = np.concatenate([v[0::2], v[1::2]])
    assert np.array_equal(p @ v, expected)
    assert np.max(np.abs(p @ p.T - np.eye(2 * n))) <= 1e-12


def test_sigma_blocks():
    assert np.array_equal(sigma_blocks(2), np.diag([1.0, -1.0, 1.0, -1.0]))


@pytest.mark.parametrize("bad", [0, -1, 65])
def test_dimension_errors(bad):
    for builder in (symplectic_form, sigma_blocks):
        with pytest.raises(DimensionError):
            builder(bad)


def test_trace_norm_examples():
    assert trace_norms(np.eye(2)) == pytest.approx(2.0, abs=1e-12)
    assert trace_norms(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)


def test_trace_norm_matches_eigensolve_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rng.standard_normal((3, 3))
        # independent oracle: eigenvalues of the Gram matrix
        oracle = np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(m.T @ m), 0.0)))
        assert trace_norms(m) == pytest.approx(oracle, rel=1e-12)


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert trace_norms(u @ m @ v) == pytest.approx(trace_norms(m), rel=1e-9)


def test_trace_norm_keeps_tiny_singular_values():
    # an eigensolve of M^T M rounds the 1e-9 singular value away
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    m = rot @ np.diag([1.0, 1e-9]) @ rot.T
    assert abs(trace_norms(m) - (1.0 + 1e-9)) <= 1e-15


def test_trace_norms_of_a_stack():
    rng = np.random.default_rng(29)
    stack = rng.standard_normal((7, 3, 2))
    got = trace_norms(stack)
    assert got.shape == (7,)
    for i in range(7):
        assert got[i] == pytest.approx(trace_norms(stack[i]), rel=1e-14)
    with pytest.raises(ValueError):
        trace_norms(np.full((2, 2, 2), np.nan))


def test_trace_norms_of_one_by_one_stacks_equal_the_svd():
    # (..., 1, 1) stacks take |entry|; the SVD stays the reference
    rng = np.random.default_rng(31)
    entries = np.concatenate([
        rng.standard_normal(5000),
        [0.0, -0.0, 1e-310, -1e-310, 5e-324, 1e300, -1e300, 1.7e308, -1.7e308],
    ])
    for stack in (entries.reshape(-1, 1, 1), entries.reshape(-1, 1, 1)[::3]):
        svd = np.sum(np.linalg.svd(stack, compute_uv=False), axis=-1)
        assert np.array_equal(trace_norms(stack), svd)
    assert np.array_equal(trace_norms(entries[:30].reshape(5, 6, 1, 1)),
                          np.abs(entries[:30]).reshape(5, 6))
    for bad in (np.nan, np.inf, -np.inf):
        stack = entries[:4].reshape(4, 1, 1).copy()
        stack[2, 0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            trace_norms(stack)


def test_spectral_norm_examples():
    assert spectral_norm(np.eye(6)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)


def test_spectral_norm_below_trace_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        assert spectral_norm(m) <= trace_norms(m) + 1e-12


def test_norms_reject_non_finite():
    with pytest.raises(ValueError):
        trace_norms([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        spectral_norm([[np.inf, 0.0], [0.0, 1.0]])


def test_is_psd_rejects_mismatched_or_non_finite_parts():
    for x, y in [
        (np.eye(2), np.zeros((3, 3))),
        (np.zeros((2, 3)), np.zeros((2, 3))),
        ([[np.nan, 0.0], [0.0, 1.0]], np.zeros((2, 2))),
        (np.eye(2), [[0.0, np.inf], [-np.inf, 0.0]]),
    ]:
        with pytest.raises(ValueError):
            is_psd(x, y)


def test_is_psd_examples():
    delta = symplectic_form(1)
    assert is_psd(np.eye(2), delta)
    assert not is_psd(0.5 * np.eye(2), delta)


def test_is_psd_matches_complex_eigensolver():
    rng = np.random.default_rng(3)
    for dim in (2, 4):
        for _ in range(25):
            s = rng.standard_normal((dim, dim))
            x = s @ s.T + np.eye(dim)
            y = rng.standard_normal((dim, dim))
            y = y - y.T
            oracle_min = np.min(np.linalg.eigvalsh(x + 1j * y))
            assert min_eigenvalue(x, y) == pytest.approx(oracle_min, abs=1e-9)
            scale = max(1.0, spectral_norm(x))
            assert is_psd(x, y) == (oracle_min >= -1e-9 * scale)


def test_max_abs():
    assert max_abs([[1.0, -3.5], [2.0, 0.0]]) == 3.5
    assert max_abs(np.zeros(0)) == 0.0
