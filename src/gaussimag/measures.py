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

def _cov_summand(cov: np.ndarray) -> np.ndarray:
    """The covariance summand of I_Gn of ``cov``, (2n, 2n) or a stack (m, 2n, 2n)."""
    det_qq = np.linalg.det(cov[..., 0::2, 0::2])
    det_pp = np.linalg.det(cov[..., 1::2, 1::2])
    if np.any(det_qq <= 0) or np.any(det_pp <= 0):
        raise ValidationError("covariance sector block has non-positive determinant")
    return 1.0 - np.linalg.det(cov) / (det_qq * det_pp)


def _disp_summand(disp: np.ndarray) -> np.ndarray:
    """The displacement summand of I_Gn of ``disp``, (2n,) or a stack (m, 2n)."""
    return step_function(np.sum(np.abs(disp[..., 1::2]), axis=-1), np.max(np.abs(disp), axis=-1))


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
    return _ign_report((_cov_summand(s.covariance), _disp_summand(s.displacement)), "I_Gn")


# ---------------------------------------------------------------------------
# channel measures
# ---------------------------------------------------------------------------

#: The names of the four summands of I_c and I_d, in the order of
#: :func:`_channel_terms`.
_TERM_NAMES = ("T21", "T12*T22", "N12", "displacement")


def _channel_terms(t: np.ndarray, n: np.ndarray, d: np.ndarray) -> tuple:
    """The four raw summands shared by I_c and I_d.

    Works on stacks: ``t`` and ``n`` are (m, 2n, 2n), ``d`` is (m, 2n),
    all in the interleaved ordering, so position rows/columns are the
    even indices and momentum ones the odd indices.  Returns four (m,)
    summand arrays.  The displacement summand is the trace (l2) norm of
    the momentum part of d.
    """
    term_t21 = trace_norms(t[..., 1::2, 0::2])
    term_t12t22 = trace_norms(t[..., 0::2, 1::2]) * trace_norms(t[..., 1::2, 1::2])
    term_n12 = trace_norms(n[..., 0::2, 1::2])
    term_d = np.linalg.norm(d[..., 1::2], axis=-1)
    return term_t21, term_t12t22, term_n12, term_d


def channel_measure_ic(c: GaussianChannel) -> MeasureReport:
    """Continuous channel imaginarity measure (four trace-norm summands)."""
    terms = _channel_terms(c.T[None], c.N[None], c.d[None])
    breakdown = [(name, float(v[0])) for name, v in zip(_TERM_NAMES, terms)]
    return MeasureReport(value=sum(v for _, v in breakdown), kind="I_c", breakdown=breakdown)


def channel_measure_ic_stack(t, n, d) -> np.ndarray:
    """I_c of every channel in a stack, as one (m,) array.

    ``t`` and ``n`` are (m, 2n, 2n) and ``d`` is (m, 2n); the summands
    are those of :func:`channel_measure_ic`.  The matrices are not
    validated beyond finiteness.
    """
    return sum(_channel_terms(*(np.asarray(a, dtype=float) for a in (t, n, d))))


def channel_measure_id(c: GaussianChannel) -> MeasureReport:
    """Discrete channel imaginarity measure: step of each I_c summand."""
    terms = _channel_terms(c.T[None], c.N[None], c.d[None])
    scales = [np.max(np.abs(a)) for a in (c.T, c.T, c.N, c.d)]
    steps = step_function(np.concatenate(terms), np.array(scales))
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
    moves, and objective evaluations (trial states scored), 1 + restarts * (1 + iterations).
    """
    n = c.modes
    bound, d_bound = CM_EIGENVALUE_BOUND, DISPLACEMENT_BOUND

    def finite(states, outputs):
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(outputs))):
            raise ValidationError("search iterate or channel output has non-finite entries")
        return outputs

    def cov_term(nu):  # of the channel outputs of states with covariances nu (m, 2n, 2n)
        return _cov_summand(finite(nu, c.T @ nu @ c.T.T + c.N))

    def disp_term(d0):  # of the channel outputs of states with displacements d0 (m, 2n)
        return _disp_summand(finite(d0, (c.T @ d0[..., None])[..., 0] + c.d))

    vacuum = np.array([cov_term(np.eye(2 * n)[None])[0], disp_term(np.zeros((1, 2 * n)))[0]])

    # The real states searched: momentum entries of d0 and qp blocks of nu stay zero.
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)]
    d0 = np.zeros((cfg.restarts, 2 * n))
    d0[:, 0::2] = np.stack([rng.uniform(-d_bound, d_bound, n) for rng in rngs])
    nu = np.zeros((cfg.restarts, 2 * n, 2 * n))
    for s in (0, 1):
        nu[:, s::2, s::2] = _clip_spd(_random_syms(rngs, n, bound), 1.0, bound)
    terms = np.stack([cov_term(nu), disp_term(d0)], axis=-1)
    accepted = 0
    step_disp = 0.5 * max(d_bound, 1.0)
    step_cm = 0.25 * (bound - 1.0)
    for it in range(cfg.iterations_per_restart):
        # A move re-scores only the summand it changes; the other one's inputs are unchanged.
        d0_new, nu_new, trial = d0.copy(), nu.copy(), terms.copy()
        if it % 3 == 0:
            for k, rng in enumerate(rngs):
                d0_new[k, 2 * rng.integers(n)] += rng.uniform(-step_disp, step_disp)
            np.clip(d0_new, -d_bound, d_bound, out=d0_new)
            trial[:, 1] = disp_term(d0_new)
        else:
            s = it % 3 - 1  # the qq, then the pp block
            block = nu[:, s::2, s::2] + _random_syms(rngs, n, step_cm)
            nu_new[:, s::2, s::2] = _clip_spd(block, 1.0, bound)
            trial[:, 0] = cov_term(nu_new)
        better = trial.sum(axis=1) > terms.sum(axis=1)
        accepted += int(np.count_nonzero(better))
        d0 = np.where(better[:, None], d0_new, d0)
        nu = np.where(better[:, None, None], nu_new, nu)
        terms = np.where(better[:, None], trial, terms)
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
        objective_evaluations=1 + cfg.restarts * (1 + cfg.iterations_per_restart),
    )

