"""Dense linear-algebra primitives for small symplectic systems.

Everything in this package works with 2n x 2n real matrices in the
"interleaved" quadrature ordering (q1, p1, q2, p2, ...).  This module
provides the structural constant matrices (symplectic form, per-mode
momentum flip), the matrix norms used by the imaginarity measures, and
positive-semidefiniteness tests for Hermitian forms X + iY with real
symmetric X and real antisymmetric Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Largest supported mode count.  All content here is small-n; dense
#: algorithms are entirely adequate below this cap.
MAX_MODES = 64

#: Relative eigenvalue floor used by :func:`is_psd`.  Covariance matrices
#: sitting exactly on the uncertainty boundary must not be rejected by
#: round-off, so "PSD" means min eigenvalue >= -tol * scale.
DEFAULT_PSD_TOL = 1e-9


class DimensionError(ValueError):
    """Raised for non-positive or over-cap mode counts and shape mismatches."""


def _check_modes(n: int) -> int:
    if not isinstance(n, (int, np.integer)):
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
    n = _check_modes(n)
    delta = np.zeros((2 * n, 2 * n))
    for k in range(n):
        delta[2 * k, 2 * k + 1] = 1.0
        delta[2 * k + 1, 2 * k] = -1.0
    return delta


def sigma_blocks(n: int) -> np.ndarray:
    """Return Sigma_n = diag(1, -1, 1, -1, ...), the per-mode momentum flip."""
    n = _check_modes(n)
    return np.diag(np.tile([1.0, -1.0], n))


def _singular_values(m: np.ndarray) -> np.ndarray:
    # A direct SVD keeps singular values far below sqrt(eps) * sigma_max,
    # which an eigensolve of M^T M would round away.  Works on stacks
    # (..., r, c) as well.
    return np.linalg.svd(m, compute_uv=False)


def trace_norm(m) -> float:
    """Sum of singular values of ``m``."""
    m = _as_matrix(m)
    return float(np.sum(_singular_values(m)))


def trace_norms(stack) -> np.ndarray:
    """Trace norm of every matrix in a stack of shape (..., r, c)."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim < 2:
        raise ValueError(f"stack must be at least 2-dimensional, got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("stack contains non-finite entries")
    if stack.shape[-2:] == (1, 1):  # the one singular value is |entry|
        return np.abs(stack[..., 0, 0])
    return np.sum(_singular_values(stack), axis=-1)


def spectral_norm(m) -> float:
    """Largest singular value of ``m``."""
    m = _as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.max(_singular_values(m)))


@dataclass(frozen=True)
class HermitianForm:
    """A Hermitian matrix X + iY given by its real symmetric and imaginary
    antisymmetric parts.

    Parameters
    ----------
    real_part : (m, m) array_like, symmetric
    imag_part : (m, m) array_like, antisymmetric
    """

    real_part: np.ndarray
    imag_part: np.ndarray

    def __post_init__(self):
        x = _as_matrix(self.real_part, "real_part")
        y = _as_matrix(self.imag_part, "imag_part")
        if x.shape != y.shape or x.shape[0] != x.shape[1]:
            raise ValueError(
                f"real/imag parts must be square and congruent, got {x.shape}, {y.shape}"
            )
        scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
        if np.max(np.abs(x - x.T)) > 1e-9 * scale:
            raise ValueError("real_part is not symmetric within tolerance")
        if np.max(np.abs(y + y.T)) > 1e-9 * scale:
            raise ValueError("imag_part is not antisymmetric within tolerance")
        object.__setattr__(self, "real_part", x)
        object.__setattr__(self, "imag_part", y)

    @property
    def dim(self) -> int:
        return self.real_part.shape[0]

    def embedding(self) -> np.ndarray:
        """The 2m x 2m real symmetric embedding [[X, -Y], [Y, X]].

        Its spectrum is that of X + iY with every eigenvalue doubled,
        which is harmless for minimum-eigenvalue tests.
        """
        x, y = self.real_part, self.imag_part
        return np.block([[x, -y], [y, x]])


def min_eigenvalue(form: HermitianForm) -> float:
    """Minimum eigenvalue of the Hermitian matrix X + iY."""
    return float(np.min(np.linalg.eigvalsh(form.embedding())))


def is_psd(form: HermitianForm, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Whether X + iY >= 0 up to a relative eigenvalue floor.

    True iff the minimum eigenvalue is >= -tol * scale with
    scale = max(1, ||X||).
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    scale = max(1.0, spectral_norm(form.real_part))
    return min_eigenvalue(form) >= -tol * scale


def max_abs(m) -> float:
    """Largest absolute entry of a matrix or vector (0 for empty input)."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))
