"""Dense linear-algebra primitives for small symplectic systems.

Everything in this package works with 2n x 2n real matrices in the
"interleaved" quadrature ordering (q1, p1, q2, p2, ...).  This module
provides the structural constant matrices (symplectic form, per-mode
momentum flip), the matrix norms used by the imaginarity measures, and
the positive-semidefiniteness test for Hermitian matrices X + iY with
real symmetric X and real antisymmetric Y.
"""

from __future__ import annotations

import numpy as np

#: Largest supported mode count.  All content here is small-n; dense
#: algorithms are entirely adequate below this cap.
MAX_MODES = 64

#: Relative eigenvalue floor used by :func:`is_psd`.  Covariance matrices
#: sitting exactly on the uncertainty boundary must not be rejected by
#: round-off, so "PSD" means min eigenvalue >= -PSD_TOL * max(1, ||X||).
PSD_TOL = 1e-9


class DimensionError(ValueError):
    """Raised for non-positive or over-cap mode counts and shape mismatches."""


def check_modes(n: int) -> int:
    """``n`` as an int, or :class:`DimensionError` unless 1 <= n <= MAX_MODES."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DimensionError(f"mode count must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise DimensionError(f"mode count must be >= 1, got {n}")
    if n > MAX_MODES:
        raise DimensionError(f"mode count {n} exceeds the supported cap {MAX_MODES}")
    return n


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Delta_n.

    Block-diagonal with 2x2 blocks [[0, 1], [-1, 0]]; antisymmetric and
    squares to -I.
    """
    n = check_modes(n)
    delta = np.zeros((2 * n, 2 * n))
    for k in range(n):
        delta[2 * k, 2 * k + 1] = 1.0
        delta[2 * k + 1, 2 * k] = -1.0
    return delta


def sigma_blocks(n: int) -> np.ndarray:
    """Return Sigma_n = diag(1, -1, 1, -1, ...), the per-mode momentum flip."""
    n = check_modes(n)
    return np.diag(np.tile([1.0, -1.0], n))


def trace_norms(stack) -> np.ndarray:
    """Trace norm of every matrix in a stack of shape (..., r, c)."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim < 2:
        raise ValueError(f"stack must be at least 2-dimensional, got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("stack contains non-finite entries")
    if stack.shape[-2:] == (1, 1):  # the one singular value is |entry|
        return np.abs(stack[..., 0, 0])
    # A direct SVD keeps singular values far below sqrt(eps) * sigma_max,
    # which an eigensolve of M^T M would round away.
    return np.sum(np.linalg.svd(stack, compute_uv=False), axis=-1)


def spectral_norm(m) -> float:
    """Largest singular value of ``m``."""
    m = _as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.max(np.linalg.svd(m, compute_uv=False)))


def min_eigenvalue(x, y) -> float:
    """Minimum eigenvalue of the Hermitian matrix X + iY, from its real
    symmetric part ``x`` and real antisymmetric part ``y``.

    The real embedding [[X, -Y], [Y, X]] has the spectrum of X + iY with
    every eigenvalue doubled, which leaves the minimum unchanged.
    """
    x = _as_matrix(x, "real_part")
    y = _as_matrix(y, "imag_part")
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise ValueError(
            f"real/imag parts must be square and congruent, got {x.shape}, {y.shape}"
        )
    return float(np.min(np.linalg.eigvalsh(np.block([[x, -y], [y, x]]))))


def is_psd(x, y) -> bool:
    """Whether X + iY >= 0, that is min eigenvalue >= -PSD_TOL * max(1, ||X||)."""
    return min_eigenvalue(x, y) >= -PSD_TOL * max(1.0, spectral_norm(x))


def max_abs(m) -> float:
    """Largest absolute entry of a matrix or vector (0 for empty input)."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))
