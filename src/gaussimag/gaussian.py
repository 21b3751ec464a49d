"""Gaussian states, channels, and superchannels with realness predicates.

Conventions
-----------
Quadratures are ordered (q1, p1, ..., qn, pn).  A Gaussian state is the
pair (displacement, covariance); a Gaussian channel acts as

    d0 -> T d0 + d,      nu -> T nu T^T + N,

and a Gaussian superchannel Phi(A, O, Y, dbar) maps channels as

    d -> A d + dbar,  T -> A T Sigma O^T Sigma,  N -> A N A^T + Y.

Realness is the sparsity structure that guarantees real matrix elements
in the Fock basis: momentum displacements vanish and position/momentum
sectors of the covariance decouple.  Channels are real iff they are
"completely real" (they erase the momentum sector) or "covariant real"
(they never mix the sectors); superchannels are real iff they preserve
the set of real channels, which reduces to analogous patterns on
(A, O, Y, dbar).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_PSD_TOL,
    DimensionError,
    HermitianForm,
    is_psd,
    max_abs,
    min_eigenvalue,
    sigma_blocks,
    spectral_norm,
    symplectic_form,
)

#: Default absolute tolerance for entry-wise zero-pattern tests, scaled
#: by max(1, largest entry of the containing matrix).  Realness
#: conditions are exact-sparsity statements; the scaling absorbs the
#: round-off of floating-point channel constructions.
DEFAULT_PATTERN_TOL = 1e-10


class ValidationError(ValueError):
    """Raised when an operation is handed a malformed or unphysical object."""


def _as_vector(v, length: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise DimensionError(f"{name} must have shape ({length},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains non-finite entries")
    return v


def _as_square(m, dim: int, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (dim, dim):
        raise DimensionError(f"{name} must have shape ({dim}, {dim}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


@dataclass
class GaussianState:
    """A Gaussian state (displacement, covariance) on ``modes`` modes."""

    modes: int
    displacement: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        if self.modes < 1:
            raise DimensionError("modes must be >= 1")
        dim = 2 * self.modes
        self.displacement = _as_vector(self.displacement, dim, "displacement")
        self.covariance = _as_square(self.covariance, dim, "covariance")

    @classmethod
    def vacuum(cls, modes: int = 1) -> "GaussianState":
        return cls(modes, np.zeros(2 * modes), np.eye(2 * modes))


@dataclass
class GaussianChannel:
    """A Gaussian channel (T, N, d) on ``modes`` modes."""

    modes: int
    T: np.ndarray
    N: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        if self.modes < 1:
            raise DimensionError("modes must be >= 1")
        dim = 2 * self.modes
        self.T = _as_square(self.T, dim, "T")
        self.N = _as_square(self.N, dim, "N")
        self.d = _as_vector(self.d, dim, "d")

    @classmethod
    def identity(cls, modes: int = 1) -> "GaussianChannel":
        dim = 2 * modes
        return cls(modes, np.eye(dim), np.zeros((dim, dim)), np.zeros(dim))

    @classmethod
    def amplifying(cls, modes: int, tau: float, n_th: float = 0.0, d=None) -> "GaussianChannel":
        """The amplifying channel T = sqrt(tau) I, N = (tau - 1)(2 n_th + 1) I."""
        if tau < 1:
            raise ValidationError("amplifying channel requires tau >= 1")
        dim = 2 * modes
        if d is None:
            d = np.zeros(dim)
        return cls(
            modes,
            np.sqrt(tau) * np.eye(dim),
            (tau - 1.0) * (2.0 * n_th + 1.0) * np.eye(dim),
            d,
        )


@dataclass
class GaussianSuperchannel:
    """A Gaussian superchannel (A, O, Y, dbar) on ``modes`` modes."""

    modes: int
    A: np.ndarray
    O: np.ndarray
    Y: np.ndarray
    dbar: np.ndarray

    def __post_init__(self):
        if self.modes < 1:
            raise DimensionError("modes must be >= 1")
        dim = 2 * self.modes
        self.A = _as_square(self.A, dim, "A")
        self.O = _as_square(self.O, dim, "O")
        self.Y = _as_square(self.Y, dim, "Y")
        self.dbar = _as_vector(self.dbar, dim, "dbar")

    @classmethod
    def identity(cls, modes: int = 1) -> "GaussianSuperchannel":
        dim = 2 * modes
        return cls(modes, np.eye(dim), np.eye(dim), np.zeros((dim, dim)), np.zeros(dim))


@dataclass
class RealnessReport:
    """Outcome of the channel realness test.

    ``violations`` lists (condition identifier, (row, col) index pair,
    magnitude) for every offending entry; it is empty exactly when the
    channel is real.
    """

    is_real: bool
    is_completely_real: bool
    is_covariant_real: bool
    violations: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

def _symmetric(m: np.ndarray, tol: float) -> bool:
    return max_abs(m - m.T) <= tol * max(1.0, max_abs(m))


def validate_state(s: GaussianState, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Whether the covariance is symmetric and nu + i Delta >= 0."""
    nu = s.covariance
    if not _symmetric(nu, 1e-9):
        return False
    delta = symplectic_form(s.modes)
    sym = 0.5 * (nu + nu.T)
    return is_psd(HermitianForm(sym, delta), tol)


def channel_constraint(c: GaussianChannel) -> HermitianForm:
    """The Hermitian form N + i(Delta - T Delta T^T) of the CP condition."""
    delta = symplectic_form(c.modes)
    sym = 0.5 * (c.N + c.N.T)
    return HermitianForm(sym, delta - c.T @ delta @ c.T.T)


def validate_channel(c: GaussianChannel, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Whether N is symmetric PSD and N + i Delta - i T Delta T^T >= 0."""
    if not _symmetric(c.N, 1e-9):
        return False
    sym = 0.5 * (c.N + c.N.T)
    if not is_psd(HermitianForm(sym, np.zeros_like(sym)), tol):
        return False
    return is_psd(channel_constraint(c), tol)


def validate_superchannel(s: GaussianSuperchannel, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Whether O is orthogonal and symplectic, Y symmetric, and the CP
    condition Y + i Delta - i A Delta A^T >= 0 holds."""
    dim = 2 * s.modes
    if max_abs(s.O @ s.O.T - np.eye(dim)) > 1e-9:
        return False
    if not _symmetric(s.Y, 1e-9):
        return False
    delta = symplectic_form(s.modes)
    sym = 0.5 * (s.Y + s.Y.T)
    if not is_psd(HermitianForm(sym, delta - s.A @ delta @ s.A.T), tol):
        return False
    # i Delta - i O Delta O^T >= 0; the left side is traceless, so PSD
    # forces it to vanish: O must preserve the symplectic form.
    zero = np.zeros((dim, dim))
    return is_psd(HermitianForm(zero, delta - s.O @ delta @ s.O.T), tol)


# ---------------------------------------------------------------------------
# actions and composition
# ---------------------------------------------------------------------------

def _require_same_modes(a, b):
    if a.modes != b.modes:
        raise DimensionError(f"mode counts differ: {a.modes} vs {b.modes}")


def apply_channel(c: GaussianChannel, s: GaussianState) -> GaussianState:
    """The state (T d0 + d, T nu T^T + N)."""
    _require_same_modes(c, s)
    return GaussianState(
        s.modes,
        c.T @ s.displacement + c.d,
        c.T @ s.covariance @ c.T.T + c.N,
    )


def compose(outer: GaussianChannel, inner: GaussianChannel) -> GaussianChannel:
    """Channel concatenation: ``outer`` after ``inner``."""
    _require_same_modes(outer, inner)
    return GaussianChannel(
        outer.modes,
        outer.T @ inner.T,
        outer.T @ inner.N @ outer.T.T + outer.N,
        outer.T @ inner.d + outer.d,
    )


def apply_superchannel(s: GaussianSuperchannel, c: GaussianChannel) -> GaussianChannel:
    """The channel (A T Sigma O^T Sigma, A N A^T + Y, A d + dbar)."""
    _require_same_modes(s, c)
    sigma = sigma_blocks(s.modes)
    return GaussianChannel(
        c.modes,
        s.A @ c.T @ sigma @ s.O.T @ sigma,
        s.A @ c.N @ s.A.T + s.Y,
        s.A @ c.d + s.dbar,
    )


def decompose_superchannel(
    s: GaussianSuperchannel,
) -> tuple[GaussianChannel, GaussianChannel]:
    """The (pre, post) channels with Phi(phi) = post o phi o pre.

    pre = (Sigma O^T Sigma, 0, 0) and post = (A, Y, dbar).
    """
    dim = 2 * s.modes
    sigma = sigma_blocks(s.modes)
    pre = GaussianChannel(
        s.modes, sigma @ s.O.T @ sigma, np.zeros((dim, dim)), np.zeros(dim)
    )
    post = GaussianChannel(s.modes, s.A.copy(), 0.5 * (s.Y + s.Y.T), s.dbar.copy())
    return pre, post


# ---------------------------------------------------------------------------
# realness patterns
#
# With 0-based indices in the (q1, p1, ...) ordering, momentum rows and
# columns are the odd ones.  The patterns below are the 1-based
# conditions of the realness characterization:
#   state/channel displacement:   d_{2k} = 0        -> v[1::2] == 0
#   noise coupling:               n_{2k-1, 2l} = 0  -> M[0::2, 1::2] == 0
#   complete realness of T:       t_{2k, l} = 0     -> T[1::2, :] == 0
#   covariant realness of T:      t_{2k-1, 2l} = t_{2k, 2l-1} = 0
#                                 -> T[0::2, 1::2] == T[1::2, 0::2] == 0
# ---------------------------------------------------------------------------

def _vector_violations(v: np.ndarray, label: str, tol: float) -> list:
    thresh = tol * max(1.0, max_abs(v))
    out = []
    for i in range(1, len(v), 2):
        if abs(v[i]) > thresh:
            out.append((label, (i, i), float(abs(v[i]))))
    return out


def _block_violations(m: np.ndarray, rows, cols, label: str, tol: float) -> list:
    thresh = tol * max(1.0, max_abs(m))
    out = []
    for i in rows:
        for j in cols:
            if abs(m[i, j]) > thresh:
                out.append((label, (i, j), float(abs(m[i, j]))))
    return out


def _momentum_rows(dim: int):
    return range(1, dim, 2)


def _position_rows(dim: int):
    return range(0, dim, 2)


def _offdiag_pattern_violations(m: np.ndarray, label: str, tol: float) -> list:
    """Violations of the position-row / momentum-column zero pattern."""
    dim = m.shape[0]
    return _block_violations(m, _position_rows(dim), _momentum_rows(dim), label, tol)


def _mixing_pattern_violations(m: np.ndarray, label: str, tol: float) -> list:
    """Violations of sector-mixing zeros (both off-diagonal blocks)."""
    dim = m.shape[0]
    return _block_violations(
        m, _position_rows(dim), _momentum_rows(dim), label, tol
    ) + _block_violations(m, _momentum_rows(dim), _position_rows(dim), label, tol)


def channel_realness(c: GaussianChannel, tol: float = DEFAULT_PATTERN_TOL) -> RealnessReport:
    """Classify a channel as completely real, covariant real, or neither."""
    dim = 2 * c.modes
    common = _vector_violations(c.d, "d_momentum", tol)
    common += _offdiag_pattern_violations(c.N, "N_qp", tol)

    erase = _block_violations(c.T, _momentum_rows(dim), range(dim), "T_momentum_rows", tol)
    mix = _mixing_pattern_violations(c.T, "T_mixing", tol)

    completely = not common and not erase
    covariant = not common and not mix
    report = RealnessReport(
        is_real=completely or covariant,
        is_completely_real=completely,
        is_covariant_real=covariant,
    )
    if not report.is_real:
        report.violations = common + (erase if len(erase) <= len(mix) else mix)
        if not report.violations:  # pragma: no cover - defensive
            report.violations = erase + mix
    return report


def state_realness(s: GaussianState, tol: float = DEFAULT_PATTERN_TOL) -> bool:
    """Whether the state has no momentum displacement and a covariance
    that does not couple the position and momentum sectors."""
    if _vector_violations(s.displacement, "d0_momentum", tol):
        return False
    return not _offdiag_pattern_violations(s.covariance, "nu_qp", tol)


def _superchannel_common_ok(s: GaussianSuperchannel, tol: float) -> bool:
    return not _vector_violations(s.dbar, "dbar_momentum", tol) and not (
        _offdiag_pattern_violations(s.Y, "Y_qp", tol)
    )


def _a_erases_momentum(s: GaussianSuperchannel, tol: float) -> bool:
    dim = 2 * s.modes
    return not _block_violations(s.A, _momentum_rows(dim), range(dim), "A_momentum_rows", tol)


def _a_o_block_diagonal(s: GaussianSuperchannel, tol: float) -> bool:
    return not _mixing_pattern_violations(s.A, "A_mixing", tol) and not (
        _mixing_pattern_violations(s.O, "O_mixing", tol)
    )


def superchannel_is_real(s: GaussianSuperchannel, tol: float = DEFAULT_PATTERN_TOL) -> bool:
    """Whether the superchannel maps every real channel to a real channel."""
    if not _superchannel_common_ok(s, tol):
        return False
    return _a_erases_momentum(s, tol) or _a_o_block_diagonal(s, tol)


def superchannel_is_imaginarity_breaking(
    s: GaussianSuperchannel, tol: float = DEFAULT_PATTERN_TOL
) -> bool:
    """Whether the output channel is real for *every* input channel."""
    return _superchannel_common_ok(s, tol) and _a_erases_momentum(s, tol)


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_orthosymplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random orthogonal matrix commuting with the symplectic form.

    Realification of an n x n unitary: each 2x2 mode block is
    [[Re u, Im u], [-Im u, Re u]].
    """
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    o = np.zeros((2 * n, 2 * n))
    o[0::2, 0::2] = u.real
    o[0::2, 1::2] = u.imag
    o[1::2, 0::2] = -u.imag
    o[1::2, 1::2] = u.real
    return o


def _interleave(n: int, block_qq: np.ndarray, block_pp: np.ndarray,
                block_qp=None, block_pq=None) -> np.ndarray:
    """Assemble a 2n x 2n matrix from its position/momentum sector blocks."""
    m = np.zeros((2 * n, 2 * n))
    m[0::2, 0::2] = block_qq
    m[1::2, 1::2] = block_pp
    if block_qp is not None:
        m[0::2, 1::2] = block_qp
    if block_pq is not None:
        m[1::2, 0::2] = block_pq
    return m


def _noise_inflation(t: np.ndarray, n_matrix: np.ndarray, modes: int) -> np.ndarray:
    """Add enough identity to make N + i Delta - i T Delta T^T PSD.

    The Hermitian deficit i(Delta - T Delta T^T) has spectral norm
    ||Delta - T Delta T^T||, so inflating by that much (plus a safety
    margin) guarantees validity without rejection sampling.
    """
    delta = symplectic_form(modes)
    s = spectral_norm(delta - t @ delta @ t.T)
    margin = 1e-6 * max(1.0, s)
    return n_matrix + (s + margin) * np.eye(2 * modes)


def sample_random_channel(n: int, seed, realness: str = "any") -> GaussianChannel:
    """Draw a random valid channel, optionally with a realness pattern.

    ``realness`` is one of ``any``, ``completely-real``, ``covariant-real``.
    Validity is guaranteed by additive noise inflation rather than
    rejection sampling.
    """
    rng = _rng(seed)
    dim = 2 * n
    scale = rng.uniform(0.2, 1.4)
    t = rng.standard_normal((dim, dim))
    t *= scale / max(spectral_norm(t), 1e-12)

    g1 = rng.standard_normal((n, n)) / np.sqrt(n)
    g2 = rng.standard_normal((n, n)) / np.sqrt(n)
    d = rng.uniform(-1.0, 1.0, dim)

    if realness == "any":
        g = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        n0 = g @ g.T
    elif realness == "completely-real":
        t[1::2, :] = 0.0
        n0 = _interleave(n, g1 @ g1.T, g2 @ g2.T)
        d[1::2] = 0.0
    elif realness == "covariant-real":
        t[0::2, 1::2] = 0.0
        t[1::2, 0::2] = 0.0
        n0 = _interleave(n, g1 @ g1.T, g2 @ g2.T)
        d[1::2] = 0.0
    else:
        raise ValueError(f"unknown realness flag {realness!r}")

    return GaussianChannel(n, t, _noise_inflation(t, n0, n), d)


def sample_random_state(n: int, seed, real: bool = False) -> GaussianState:
    """Draw a random valid state; with ``real=True`` the state is real."""
    rng = _rng(seed)
    dim = 2 * n
    if real:
        v1 = _random_spd(n, rng, low=1.0, high=4.0)
        v2 = _random_spd(n, rng, low=1.0, high=4.0)
        nu = _interleave(n, v1, v2)
        d0 = rng.uniform(-2.0, 2.0, dim)
        d0[1::2] = 0.0
    else:
        g = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        nu = g @ g.T + np.eye(dim)
        d0 = rng.uniform(-2.0, 2.0, dim)
    return GaussianState(n, d0, nu)


def _random_spd(n: int, rng: np.random.Generator, low: float, high: float) -> np.ndarray:
    """Random symmetric matrix with eigenvalues drawn uniformly in [low, high]."""
    q = _random_orthogonal(n, rng)
    return q @ np.diag(rng.uniform(low, high, n)) @ q.T


def sample_random_superchannel(
    n: int, seed, flag: str = "any", unit_norm_a: bool = False
) -> GaussianSuperchannel:
    """Draw a random valid superchannel of the requested class.

    ``flag`` is one of ``any``, ``real-eq8`` (momentum-erasing A),
    ``real-eq9`` (sector-preserving A and O), ``breaking`` (momentum-
    erasing A; equivalent structural class to ``real-eq8``).  With
    ``unit_norm_a`` the A matrix is rescaled to unit spectral norm
    before the compensating Y is built (free-operation normalization).

    The orthogonal part must preserve the symplectic form (the validity
    constraint i Delta - i O Delta O^T >= 0 is traceless, hence forces
    equality), so O is drawn from the orthosymplectic group; for the
    sector-preserving pattern this means equal position and momentum
    blocks.
    """
    rng = _rng(seed)
    dim = 2 * n
    a = rng.standard_normal((dim, dim))
    a *= rng.uniform(0.2, 1.4) / max(spectral_norm(a), 1e-12)
    dbar = rng.uniform(-1.0, 1.0, dim)
    g1 = rng.standard_normal((n, n)) / np.sqrt(n)
    g2 = rng.standard_normal((n, n)) / np.sqrt(n)

    if flag == "any":
        o = _random_orthosymplectic(n, rng)
        g = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        y0 = g @ g.T
    elif flag in ("real-eq8", "breaking"):
        o = _random_orthosymplectic(n, rng)
        a[1::2, :] = 0.0
        y0 = _interleave(n, g1 @ g1.T, g2 @ g2.T)
        dbar[1::2] = 0.0
    elif flag == "real-eq9":
        o1 = _random_orthogonal(n, rng)
        o = _interleave(n, o1, o1)
        a[0::2, 1::2] = 0.0
        a[1::2, 0::2] = 0.0
        y0 = _interleave(n, g1 @ g1.T, g2 @ g2.T)
        dbar[1::2] = 0.0
    else:
        raise ValueError(f"unknown superchannel class flag {flag!r}")

    if unit_norm_a:
        a /= max(spectral_norm(a), 1e-12)

    y = _noise_inflation(a, y0, n)
    return GaussianSuperchannel(n, a, o, y, dbar)


# ---------------------------------------------------------------------------
# JSON-facing document serialization
# ---------------------------------------------------------------------------

def to_document(obj) -> dict:
    """Serialize a state/channel/superchannel into a plain JSON-able dict."""
    if isinstance(obj, GaussianState):
        return {
            "kind": "state",
            "modes": obj.modes,
            "displacement": obj.displacement.tolist(),
            "covariance": obj.covariance.tolist(),
        }
    if isinstance(obj, GaussianChannel):
        return {
            "kind": "channel",
            "modes": obj.modes,
            "T": obj.T.tolist(),
            "N": obj.N.tolist(),
            "d": obj.d.tolist(),
        }
    if isinstance(obj, GaussianSuperchannel):
        return {
            "kind": "superchannel",
            "modes": obj.modes,
            "A": obj.A.tolist(),
            "O": obj.O.tolist(),
            "Y": obj.Y.tolist(),
            "d": obj.dbar.tolist(),
        }
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def from_document(doc: dict):
    """Parse a document produced by :func:`to_document` (or hand-written)."""
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    kind = doc.get("kind")
    try:
        modes = int(doc["modes"])
        if kind == "state":
            return GaussianState(modes, doc["displacement"], doc["covariance"])
        if kind == "channel":
            return GaussianChannel(modes, doc["T"], doc["N"], doc["d"])
        if kind == "superchannel":
            return GaussianSuperchannel(modes, doc["A"], doc["O"], doc["Y"], doc["d"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {kind or 'object'} document: {exc}") from exc
    raise ValidationError(f"unknown document kind {kind!r}")


def validate_any(obj, tol: float = DEFAULT_PSD_TOL):
    """Validate any of the three object kinds.

    Returns (ok, constraint_name) where ``constraint_name`` identifies
    the violated physicality constraint when ``ok`` is False.
    """
    if isinstance(obj, GaussianState):
        if not _symmetric(obj.covariance, 1e-9):
            return False, "covariance symmetry"
        return (True, "") if validate_state(obj, tol) else (False, "nu+iDelta")
    if isinstance(obj, GaussianChannel):
        if not _symmetric(obj.N, 1e-9):
            return False, "N symmetry"
        sym = 0.5 * (obj.N + obj.N.T)
        if not is_psd(HermitianForm(sym, np.zeros_like(sym))):
            return False, "N>=0"
        if not is_psd(channel_constraint(obj), tol):
            return False, "N+iDelta-iTDeltaT^T"
        return True, ""
    if isinstance(obj, GaussianSuperchannel):
        dim = 2 * obj.modes
        if max_abs(obj.O @ obj.O.T - np.eye(dim)) > 1e-9:
            return False, "OO^T=I"
        if not _symmetric(obj.Y, 1e-9):
            return False, "Y symmetry"
        delta = symplectic_form(obj.modes)
        sym = 0.5 * (obj.Y + obj.Y.T)
        if not is_psd(HermitianForm(sym, delta - obj.A @ delta @ obj.A.T), tol):
            return False, "Y+iDelta-iADeltaA^T"
        zero = np.zeros((dim, dim))
        if not is_psd(HermitianForm(zero, delta - obj.O @ delta @ obj.O.T), tol):
            return False, "iDelta-iODeltaO^T"
        return True, ""
    raise TypeError(f"cannot validate object of type {type(obj).__name__}")
