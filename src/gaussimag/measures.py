"""Imaginarity measures for Gaussian states and channels.

Three channel measures are provided:

* ``channel_measure_ic`` -- the continuous measure built from trace
  norms of the sector-mixing blocks of T, N and the momentum part of d;
* ``channel_measure_id`` -- its discrete {0,...,4} counterpart obtained
  by applying a step function to each summand;
* ``channel_measure_is`` -- a certified *lower bound* on the supremum of
  the state measure over real Gaussian input states, obtained by seeded
  random sampling plus coordinate-wise local refinement (the supremum
  itself has no known closed-form algorithm).

Plus the determinant-based state measure I_Gn.  Membership of a
superchannel in the free-operation sets FO and FO1 is read from
``gaussian.superchannel_patterns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import GaussianChannel, GaussianState, ValidationError
from .linalg import trace_norms


#: Relative threshold of the step function h (0 at zero, else 1): a value t
#: counts as zero when |t| <= STEP_EPSILON * max(1, scale of the containing
#: matrix/vector).  Exact zero tests are meaningless in floating point, and
#: a tiny relative threshold keeps the {0, 1} values of the discrete measure.
STEP_EPSILON = 1e-12

#: The compact domain of the ``channel_measure_is`` search: real-pattern
#: displacements bounded by DISPLACEMENT_BOUND and sector-block covariance
#: eigenvalues in [1, CM_EIGENVALUE_BOUND].
CM_EIGENVALUE_BOUND = 50.0
DISPLACEMENT_BOUND = 10.0


def step_function(value, scale=1.0) -> np.ndarray:
    """h(value) elementwise: 0 where |value| <= STEP_EPSILON * max(1, scale), else 1."""
    return np.where(np.abs(value) <= STEP_EPSILON * np.maximum(1.0, scale), 0.0, 1.0)


@dataclass(frozen=True)
class SupSearchConfig:
    """Search budget for the ``channel_measure_is`` lower bound.

    Restarts use independent substreams derived from ``seed``, so results
    are identical for a fixed seed regardless of evaluation order.
    """

    restarts: int = 32
    iterations_per_restart: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.iterations_per_restart < 1:
            raise ValueError("search budget must be positive")
        if self.restarts > np.iinfo(np.intp).max:
            raise ValueError(f"restarts must be at most {np.iinfo(np.intp).max}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class MeasureReport:
    """A measure value, its per-term breakdown, and what the computation
    reports about itself (``diagnostics``; the I_s search statistics)."""

    value: float
    kind: str
    breakdown: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        total = sum(v for _, v in self.breakdown)
        if abs(total - self.value) > 1e-12 * max(1.0, abs(self.value)):
            raise ValueError("breakdown does not sum to the reported value")


# ---------------------------------------------------------------------------
# state measure
# ---------------------------------------------------------------------------

def _ign_terms(cov: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """The (covariance, displacement) summands of I_Gn as (m, 2), for stacks
    ``cov`` (m, 2n, 2n) and ``disp`` (m, 2n) in the interleaved ordering."""
    det_qq = np.linalg.det(cov[..., 0::2, 0::2])
    det_pp = np.linalg.det(cov[..., 1::2, 1::2])
    if np.any(det_qq <= 0) or np.any(det_pp <= 0):
        raise ValidationError("covariance sector block has non-positive determinant")
    cov_term = 1.0 - np.linalg.det(cov) / (det_qq * det_pp)
    disp_term = step_function(np.sum(np.abs(disp[..., 1::2]), axis=-1),
                              np.max(np.abs(disp), axis=-1))
    return np.stack([cov_term, disp_term], axis=-1)


def _ign_report(terms: np.ndarray, kind: str, **diagnostics) -> MeasureReport:
    cov_term, disp_term = terms
    return MeasureReport(
        value=float(cov_term + disp_term),
        kind=kind,
        breakdown=[("covariance", float(cov_term)), ("displacement", float(disp_term))],
        diagnostics=diagnostics,
    )


def state_measure_ign(s: GaussianState) -> MeasureReport:
    """Determinant-based state imaginarity measure.

    1 - det(nu) / (det(V_qq) det(V_pp)) + h(||momentum displacement||_1),
    where V_qq, V_pp are the position/momentum diagonal blocks of the
    sector-sorted covariance.  Vanishes exactly on real states (the
    determinant ratio is 1 by block-diagonality) and the ratio term is
    in [0, 1) by the Fischer inequality.
    """
    return _ign_report(_ign_terms(s.covariance[None], s.displacement[None])[0], "I_Gn")


# ---------------------------------------------------------------------------
# channel measures
# ---------------------------------------------------------------------------

#: The names of the four summands of I_c and I_d, in the order of
#: :func:`_channel_terms`.
_TERM_NAMES = ("T21", "T12*T22", "N12", "displacement")


def _channel_terms(t: np.ndarray, n: np.ndarray, d: np.ndarray) -> tuple:
    """The four raw summands (and their scales) shared by I_c and I_d.

    Works on stacks: ``t`` and ``n`` are (m, 2n, 2n), ``d`` is (m, 2n),
    all in the interleaved ordering, so position rows/columns are the
    even indices and momentum ones the odd indices.  Returns four (m,)
    summand arrays and a tuple of four (m,) scale arrays.  The
    displacement summand is the trace (l2) norm of the momentum part of d.
    """
    term_t21 = trace_norms(t[..., 1::2, 0::2])
    term_t12t22 = trace_norms(t[..., 0::2, 1::2]) * trace_norms(t[..., 1::2, 1::2])
    term_n12 = trace_norms(n[..., 0::2, 1::2])
    term_d = np.linalg.norm(d[..., 1::2], axis=-1)
    scale_t = np.max(np.abs(t), axis=(-2, -1))
    scales = (scale_t, scale_t, np.max(np.abs(n), axis=(-2, -1)), np.max(np.abs(d), axis=-1))
    return term_t21, term_t12t22, term_n12, term_d, scales


def channel_measure_ic(c: GaussianChannel) -> MeasureReport:
    """Continuous channel imaginarity measure (four trace-norm summands)."""
    *terms, _ = _channel_terms(c.T[None], c.N[None], c.d[None])
    breakdown = [(name, float(v[0])) for name, v in zip(_TERM_NAMES, terms)]
    return MeasureReport(value=sum(v for _, v in breakdown), kind="I_c", breakdown=breakdown)


def channel_measure_ic_stack(t, n, d) -> np.ndarray:
    """I_c of every channel in a stack, as one (m,) array.

    ``t`` and ``n`` are (m, 2n, 2n) and ``d`` is (m, 2n); the summands
    are those of :func:`channel_measure_ic`.  The matrices are not
    validated beyond finiteness.
    """
    t21, t12t22, n12, disp, _ = _channel_terms(
        np.asarray(t, dtype=float), np.asarray(n, dtype=float), np.asarray(d, dtype=float)
    )
    return t21 + t12t22 + n12 + disp


def channel_measure_id(c: GaussianChannel) -> MeasureReport:
    """Discrete channel imaginarity measure: step of each I_c summand."""
    *terms, scales = _channel_terms(c.T[None], c.N[None], c.d[None])
    steps = step_function(np.concatenate(terms), np.concatenate(scales))
    breakdown = [(name, float(v)) for name, v in zip(_TERM_NAMES, steps)]
    return MeasureReport(value=sum(v for _, v in breakdown), kind="I_d", breakdown=breakdown)


# ---------------------------------------------------------------------------
# I_s lower-bound search
# ---------------------------------------------------------------------------

def _clip_spd(v: np.ndarray, low: float, high: float) -> np.ndarray:
    """Project every symmetric matrix of a stack onto eigenvalues in [low, high].

    Sector blocks with eigenvalues >= 1 automatically satisfy the
    uncertainty relation (nu >= I implies nu + iDelta >= 0), which keeps
    every search iterate a valid real state without rejection.
    """
    w, q = np.linalg.eigh(0.5 * (v + np.swapaxes(v, -1, -2)))
    return (q * np.clip(w, low, high)[..., None, :]) @ np.swapaxes(q, -1, -2)


def _random_syms(rngs: list, n: int, scale: float) -> np.ndarray:
    """One random symmetric n x n matrix from each generator, as a stack."""
    g = np.stack([rng.standard_normal((n, n)) for rng in rngs]) * scale / n
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def channel_measure_is(
    c: GaussianChannel, cfg: SupSearchConfig = SupSearchConfig()
) -> MeasureReport:
    """Certified lower bound on sup over real states of I_Gn(channel(state)).

    Random restarts (vacuum-seeded) plus coordinate-wise hill climbing
    over the compact family of real states bounded by
    ``DISPLACEMENT_BOUND`` and ``CM_EIGENVALUE_BOUND``.  Deterministic for a fixed seed; the
    reported value never decreases when the restart budget grows.

    The restarts advance in lockstep as one stack, each drawing from its
    own substream; a move is accepted only when it strictly improves.
    ``diagnostics``: the winning restart (None for the vacuum), accepted
    moves, and objective evaluations, 1 + restarts * (1 + iterations).
    """
    n = c.modes
    bound, d_bound = CM_EIGENVALUE_BOUND, DISPLACEMENT_BOUND
    evaluations = 0

    def objective(d_pos, v1, v2):
        # I_Gn terms of the channel outputs of the real states (d_pos, v1 (+) v2)
        nonlocal evaluations
        evaluations += len(d_pos)
        d0 = np.zeros((len(d_pos), 2 * n))
        d0[:, 0::2] = d_pos
        nu = np.zeros((len(d_pos), 2 * n, 2 * n))
        nu[:, 0::2, 0::2] = v1
        nu[:, 1::2, 1::2] = v2
        cov = c.T @ nu @ c.T.T + c.N
        disp = (c.T @ d0[..., None])[..., 0] + c.d
        if not all(np.all(np.isfinite(a)) for a in (d0, nu, disp, cov)):
            raise ValidationError("search iterate or channel output has non-finite entries")
        return _ign_terms(cov, disp)

    eye = np.eye(n)[None]
    vacuum = objective(np.zeros((1, n)), eye, eye)[0]

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)]
    d_pos = np.stack([rng.uniform(-d_bound, d_bound, n) for rng in rngs])
    v1 = _clip_spd(_random_syms(rngs, n, bound), 1.0, bound)
    v2 = _clip_spd(_random_syms(rngs, n, bound), 1.0, bound)
    terms = objective(d_pos, v1, v2)
    accepted = 0
    step_disp = 0.5 * max(d_bound, 1.0)
    step_cm = 0.25 * (bound - 1.0)
    for it in range(cfg.iterations_per_restart):
        move = it % 3
        d_new, v1_new, v2_new = d_pos, v1, v2
        if move == 0:
            d_new = d_pos.copy()
            for k, rng in enumerate(rngs):
                d_new[k, rng.integers(n)] += rng.uniform(-step_disp, step_disp)
            np.clip(d_new, -d_bound, d_bound, out=d_new)
        elif move == 1:
            v1_new = _clip_spd(v1 + _random_syms(rngs, n, step_cm), 1.0, bound)
        else:
            v2_new = _clip_spd(v2 + _random_syms(rngs, n, step_cm), 1.0, bound)
        trial = objective(d_new, v1_new, v2_new)
        better = trial.sum(axis=1) > terms.sum(axis=1)
        accepted += int(np.count_nonzero(better))
        keep = better[:, None]
        d_pos = np.where(keep, d_new, d_pos)
        v1 = np.where(keep[..., None], v1_new, v1)
        v2 = np.where(keep[..., None], v2_new, v2)
        terms = np.where(keep, trial, terms)
        step_disp *= 0.985
        step_cm *= 0.985

    best, winner = vacuum.sum(), None
    for k, value in enumerate(terms.sum(axis=1)):
        if value > best:
            best, winner = value, k
    return _ign_report(
        vacuum if winner is None else terms[winner],
        "I_s lower bound",
        winning_restart=winner,
        accepted_moves=accepted,
        objective_evaluations=evaluations,
    )

