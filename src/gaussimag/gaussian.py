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
(A, O, Y, dbar).  ``superchannel_patterns`` also decides the free sets:
FO (real, with unit spectral norm of A) and its sector-preserving
subset FO1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import (
    DimensionError,
    check_modes,
    is_psd,
    max_abs,
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


def _check_fields(obj):
    """The ``__post_init__`` of the three kinds: check the mode count, then
    make each later field, in field order, a finite float array: a vector for
    a displacement and a 2n x 2n matrix for the rest."""
    obj.modes = check_modes(obj.modes)
    dim = 2 * obj.modes
    for f in fields(obj)[1:]:
        v = np.asarray(getattr(obj, f.name), dtype=float)
        shape = (dim,) if f.name in ("displacement", "d", "dbar") else (dim, dim)
        if v.shape != shape:
            raise DimensionError(f"{f.name} must have shape {shape}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError(f"{f.name} contains non-finite entries")
        setattr(obj, f.name, v)


@dataclass
class GaussianState:
    """A Gaussian state (displacement, covariance) on ``modes`` modes."""

    modes: int
    displacement: np.ndarray
    covariance: np.ndarray

    __post_init__ = _check_fields

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

    __post_init__ = _check_fields

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

    __post_init__ = _check_fields

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

def _symmetric(m: np.ndarray) -> bool:
    return max_abs(m - m.T) <= 1e-9 * max(1.0, max_abs(m))


def _constraints(obj):
    """(name, holds) for each physicality constraint of ``obj``, in check
    order; each is evaluated only when the previous ones were consumed."""
    if isinstance(obj, GaussianState):
        nu = obj.covariance
        yield "covariance symmetry", _symmetric(nu)
        yield "nu+iDelta", is_psd(0.5 * (nu + nu.T), symplectic_form(obj.modes))
    elif isinstance(obj, GaussianChannel):
        yield "N symmetry", _symmetric(obj.N)
        sym = 0.5 * (obj.N + obj.N.T)
        yield "N>=0", is_psd(sym, np.zeros_like(sym))
        delta = symplectic_form(obj.modes)
        yield "N+iDelta-iTDeltaT^T", is_psd(sym, delta - obj.T @ delta @ obj.T.T)
    elif isinstance(obj, GaussianSuperchannel):
        dim = 2 * obj.modes
        # not (> 1e-9): a NaN from overflow passes on to the checks that raise
        yield "OO^T=I", not max_abs(obj.O @ obj.O.T - np.eye(dim)) > 1e-9
        yield "Y symmetry", _symmetric(obj.Y)
        delta = symplectic_form(obj.modes)
        sym = 0.5 * (obj.Y + obj.Y.T)
        yield "Y+iDelta-iADeltaA^T", is_psd(sym, delta - obj.A @ delta @ obj.A.T)
        # i Delta - i O Delta O^T >= 0; the left side is traceless, so PSD
        # forces it to vanish: O must preserve the symplectic form.
        yield "iDelta-iODeltaO^T", is_psd(np.zeros((dim, dim)), delta - obj.O @ delta @ obj.O.T)
    else:
        raise TypeError(f"cannot validate object of type {type(obj).__name__}")


def violated_constraint(obj) -> str:
    """The name of the first physicality constraint that the state, channel
    or superchannel ``obj`` violates (for example "N>=0"), or "" if none."""
    return next((name for name, holds in _constraints(obj) if not holds), "")


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

_MOMENTUM, _POSITION, _ALL = slice(1, None, 2), slice(0, None, 2), slice(None)

#: The index of each block that a zero pattern asks to vanish, into a vector
#: (..., k) or a matrix (..., r, c) of a stack.  :func:`pattern_holds` and
#: :func:`_violations` check them and :func:`_impose` writes them.  ``pq`` and
#: ``pp`` are the single blocks T21 and T22 whose steps the measure I_d sums.
_PATTERNS = {
    "momentum": [(..., _MOMENTUM)],
    "qp": [(..., _POSITION, _MOMENTUM)],
    "pq": [(..., _MOMENTUM, _POSITION)],
    "pp": [(..., _MOMENTUM, _MOMENTUM)],
    "momentum_rows": [(..., _MOMENTUM, _ALL)],
    "mixing": [(..., _POSITION, _MOMENTUM), (..., _MOMENTUM, _POSITION)],
}


def _above(a: np.ndarray, pattern: str) -> tuple:
    """The axes of one vector or matrix of a stack, as ``pattern`` asks of
    vectors or of matrices, and where the entries of ``a`` = |m| exceed
    DEFAULT_PATTERN_TOL * max(1, max |m|), the maximum taken over them."""
    axes = tuple(range(1 - len(_PATTERNS[pattern][0]), 0))
    return axes, a > DEFAULT_PATTERN_TOL * np.max(a, axis=axes, keepdims=True, initial=1.0)


def pattern_holds(m, pattern: str) -> np.ndarray:
    """Whether every entry of the blocks of ``pattern`` is zero to within
    DEFAULT_PATTERN_TOL * max(1, max |m|): one bool per vector (..., k) or
    matrix (..., r, c) of the stack ``m``."""
    axes, above = _above(np.abs(m), pattern)
    return ~np.any([above[block].any(axis=axes) for block in _PATTERNS[pattern]], axis=0)


def _violations(m: np.ndarray, name: str, pattern: str) -> list:
    """(f"{name}_{pattern}", (i, j), |m_ij|) for each entry of the blocks of
    ``pattern`` that fails :func:`pattern_holds`'s test, block by block in
    row-major order; a vector's entry i is reported at (i, i)."""
    a = np.abs(m)
    _, above = _above(a, pattern)
    rows, cols = np.indices(m.shape)[[0, -1]]
    out = []
    for block in _PATTERNS[pattern]:
        hit = above[block]
        out += [(f"{name}_{pattern}", (r, c), v) for r, c, v in
                zip(rows[block][hit].tolist(), cols[block][hit].tolist(), a[block][hit].tolist())]
    return out


def _impose(m: np.ndarray, pattern: str) -> None:
    """Zero, in place, the blocks of ``m`` that ``pattern`` asks to vanish."""
    for block in _PATTERNS[pattern]:
        m[block] = 0.0


def channel_realness(c: GaussianChannel) -> RealnessReport:
    """Classify a channel as completely real, covariant real, or neither."""
    common = _violations(c.d, "d", "momentum") + _violations(c.N, "N", "qp")
    erase = _violations(c.T, "T", "momentum_rows")
    mix = _violations(c.T, "T", "mixing")

    completely = not common and not erase
    covariant = not common and not mix
    return RealnessReport(
        is_real=completely or covariant,
        is_completely_real=completely,
        is_covariant_real=covariant,
        # the shorter of the two transfer patterns; erase on a tie
        violations=[] if completely or covariant else common + min(erase, mix, key=len),
    )


def state_realness(s: GaussianState) -> bool:
    """Whether the state has no momentum displacement and a covariance
    that does not couple the position and momentum sectors."""
    return bool(pattern_holds(s.displacement, "momentum") & pattern_holds(s.covariance, "qp"))


@dataclass(frozen=True)
class SuperchannelPatterns:
    """The three realness patterns of a superchannel (A, O, Y, dbar), and
    the spectral norm of A that decides the free sets FO and FO1.

    ``momentum_pattern_dbar_Y``: dbar has no momentum part and Y no qp
    block; ``A_erases_momentum``: the momentum rows of A vanish;
    ``A_O_sector_preserving``: neither A nor O mixes the sectors.
    """

    momentum_pattern_dbar_Y: bool
    A_erases_momentum: bool
    A_O_sector_preserving: bool
    spectral_norm_A: float

    @property
    def is_real(self) -> bool:
        """Every real channel is mapped to a real channel."""
        return self.momentum_pattern_dbar_Y and (
            self.A_erases_momentum or self.A_O_sector_preserving
        )

    @property
    def is_imaginarity_breaking(self) -> bool:
        """The output channel is real for every input channel."""
        return self.momentum_pattern_dbar_Y and self.A_erases_momentum

    @property
    def in_fo(self) -> bool:
        """In FO: real, with the spectral norm of A equal to 1 (within 1e-9)."""
        return self.is_real and abs(self.spectral_norm_A - 1.0) <= 1e-9

    @property
    def in_fo1(self) -> bool:
        """In FO1: an FO member whose A and O preserve the position/momentum split."""
        return self.in_fo and self.A_O_sector_preserving


def superchannel_patterns(s: GaussianSuperchannel) -> SuperchannelPatterns:
    """The realness patterns of ``s``; see :class:`SuperchannelPatterns`."""
    return SuperchannelPatterns(
        momentum_pattern_dbar_Y=bool(pattern_holds(s.dbar, "momentum")
                                     & pattern_holds(s.Y, "qp")),
        A_erases_momentum=bool(pattern_holds(s.A, "momentum_rows")),
        A_O_sector_preserving=bool(pattern_holds(s.A, "mixing") & pattern_holds(s.O, "mixing")),
        spectral_norm_A=spectral_norm(s.A),
    )


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

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
    return _interleave(n, u.real, u.real, u.imag, -u.imag)


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
    rng = np.random.default_rng(seed)
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
    elif realness in ("completely-real", "covariant-real"):
        _impose(t, "momentum_rows" if realness == "completely-real" else "mixing")
        _impose(d, "momentum")
        n0 = _interleave(n, g1 @ g1.T, g2 @ g2.T)
    else:
        raise ValueError(f"unknown realness flag {realness!r}")

    return GaussianChannel(n, t, _noise_inflation(t, n0, n), d)


def sample_random_state(n: int, seed, real: bool = False) -> GaussianState:
    """Draw a random valid state; with ``real=True`` the state is real."""
    rng = np.random.default_rng(seed)
    dim = 2 * n
    if real:
        v1 = _random_spd(n, rng)
        v2 = _random_spd(n, rng)
        nu = _interleave(n, v1, v2)
    else:
        g = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        nu = g @ g.T + np.eye(dim)
    d0 = rng.uniform(-2.0, 2.0, dim)
    if real:
        _impose(d0, "momentum")
    return GaussianState(n, d0, nu)


def _random_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric matrix with eigenvalues drawn uniformly in [1, 4]."""
    q = _random_orthogonal(n, rng)
    return q @ np.diag(rng.uniform(1.0, 4.0, n)) @ q.T


def sample_random_superchannel(
    n: int, seed, flag: str = "any", unit_norm_a: bool = False
) -> GaussianSuperchannel:
    """Draw a random valid superchannel of the requested class.

    ``flag`` is one of ``any``, ``real-eq8`` (momentum-erasing A, which
    also makes the superchannel imaginarity-breaking) and ``real-eq9``
    (sector-preserving A and O).  With
    ``unit_norm_a`` the A matrix is rescaled to unit spectral norm
    before the compensating Y is built (free-operation normalization).

    The orthogonal part must preserve the symplectic form (the validity
    constraint i Delta - i O Delta O^T >= 0 is traceless, hence forces
    equality), so O is drawn from the orthosymplectic group; for the
    sector-preserving pattern this means equal position and momentum
    blocks.
    """
    rng = np.random.default_rng(seed)
    dim = 2 * n
    a = rng.standard_normal((dim, dim))
    a *= rng.uniform(0.2, 1.4) / max(spectral_norm(a), 1e-12)
    dbar = rng.uniform(-1.0, 1.0, dim)
    g1 = rng.standard_normal((n, n)) / np.sqrt(n)
    g2 = rng.standard_normal((n, n)) / np.sqrt(n)

    if flag == "real-eq9":
        o1 = _random_orthogonal(n, rng)
        o = _interleave(n, o1, o1)
    elif flag in ("any", "real-eq8"):
        o = _random_orthosymplectic(n, rng)
    else:
        raise ValueError(f"unknown superchannel class flag {flag!r}")
    if flag == "any":
        g = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        y0 = g @ g.T
    else:
        _impose(a, "mixing" if flag == "real-eq9" else "momentum_rows")
        _impose(dbar, "momentum")
        y0 = _interleave(n, g1 @ g1.T, g2 @ g2.T)

    if unit_norm_a:
        a /= max(spectral_norm(a), 1e-12)

    y = _noise_inflation(a, y0, n)
    return GaussianSuperchannel(n, a, o, y, dbar)


# ---------------------------------------------------------------------------
# JSON-facing document serialization
# ---------------------------------------------------------------------------

#: Each document kind: its class, and the document keys of the fields that
#: follow ``modes``, in field order.
_KINDS = {
    "state": (GaussianState, ("displacement", "covariance")),
    "channel": (GaussianChannel, ("T", "N", "d")),
    "superchannel": (GaussianSuperchannel, ("A", "O", "Y", "d")),
}


def to_document(obj) -> dict:
    """Serialize a state/channel/superchannel into a plain JSON-able dict."""
    for kind, (cls, keys) in _KINDS.items():
        if isinstance(obj, cls):
            arrays = (getattr(obj, f.name).tolist() for f in fields(obj)[1:])
            return {"kind": kind, "modes": obj.modes, **dict(zip(keys, arrays))}
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def from_document(doc: dict):
    """Parse a document produced by :func:`to_document` (or hand-written)."""
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(f"unknown document kind {kind!r}")
    cls, keys = _KINDS[kind]
    try:
        return cls(doc["modes"], *(doc[key] for key in keys))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {kind} document: {exc}") from exc
