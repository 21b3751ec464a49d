"""Imaginarity measures for Gaussian states and channels.

Three channel measures are provided:

* ``channel_measure_ic`` -- the continuous measure built from trace
  norms of the sector-mixing blocks of T, N and the momentum part of d;
* ``channel_measure_id`` -- its discrete {0,...,4} counterpart, a step per
  summand that reads the realness pattern test ``gaussian.pattern_holds``;
* ``channel_measure_is`` -- a certified *lower bound* on the supremum of
  the state measure over real Gaussian input states, obtained by seeded
  random sampling plus coordinate-wise local refinement (the supremum
  itself has no known closed-form algorithm).

Plus the determinant-based state measure I_Gn, whose displacement step reads
the same test.  Membership of a superchannel in the free-operation sets FO
and FO1 is read from ``gaussian.superchannel_patterns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import GaussianChannel, GaussianState, ValidationError, pattern_holds
from .linalg import trace_norms

#: The compact domain of the ``channel_measure_is`` search: real-pattern
#: displacements bounded by DISPLACEMENT_BOUND and sector-block covariance
#: eigenvalues in [1, CM_EIGENVALUE_BOUND].
CM_EIGENVALUE_BOUND = 50.0
DISPLACEMENT_BOUND = 10.0


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
    """A measure's per-term breakdown, whose sum is its value, and what the
    computation reports about itself (``diagnostics``; the I_s search statistics)."""

    kind: str
    breakdown: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return sum(v for _, v in self.breakdown)


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
    return 1.0 - pattern_holds(disp, "momentum")


def _ign_report(terms: np.ndarray, kind: str, **diagnostics) -> MeasureReport:
    breakdown = [(name, float(v)) for name, v in zip(("covariance", "displacement"), terms)]
    return MeasureReport(kind, breakdown, diagnostics)


def state_measure_ign(s: GaussianState) -> MeasureReport:
    """Determinant-based state imaginarity measure.

    1 - det(nu) / (det(V_qq) det(V_pp)) + h(momentum displacement), where
    V_qq, V_pp are the position/momentum diagonal blocks of the sector-sorted
    covariance and h is the realness pattern step.  Vanishes exactly on real
    states (the determinant ratio is 1 by block-diagonality) and the ratio
    term is in [0, 1) by the Fischer inequality.
    """
    return _ign_report((_cov_summand(s.covariance), _disp_summand(s.displacement)), "I_Gn")


# ---------------------------------------------------------------------------
# channel measures
# ---------------------------------------------------------------------------

#: The names of the four summands of I_c and I_d, in the order of
#: :func:`_channel_terms` and :func:`channel_measure_id`.
_TERM_NAMES = ("T21", "T12*T22", "N12", "displacement")


def _channel_terms(t: np.ndarray, n: np.ndarray, d: np.ndarray) -> tuple:
    """The four summands of I_c.

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
    return MeasureReport("I_c", [(name, float(v[0])) for name, v in zip(_TERM_NAMES, terms)])


def channel_measure_ic_stack(t, n, d) -> np.ndarray:
    """I_c of every channel in a stack, as one (m,) array.

    ``t`` and ``n`` are (m, 2n, 2n) and ``d`` is (m, 2n); the summands
    are those of :func:`channel_measure_ic`.  The matrices are not
    validated beyond finiteness.
    """
    return sum(_channel_terms(*(np.asarray(a, dtype=float) for a in (t, n, d))))


def channel_measure_id(c: GaussianChannel) -> MeasureReport:
    """Discrete channel imaginarity measure h(T21) + h(T12) h(T22) + h(N12) + h(d_p),
    where h(block) is 0 if the block passes :func:`gaussian.pattern_holds`, else 1."""
    t21, t12, t22, n12, d_p = (1.0 - pattern_holds(m, p) for m, p in (
        (c.T, "pq"), (c.T, "qp"), (c.T, "pp"), (c.N, "qp"), (c.d, "momentum")))
    steps = (t21, t12 * t22, n12, d_p)
    return MeasureReport("I_d", [(name, float(v)) for name, v in zip(_TERM_NAMES, steps)])


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

    # The first restart of the highest total wins, if it beats the vacuum strictly.
    totals = terms.sum(axis=1)
    winner = int(np.argmax(totals)) if totals.max() > vacuum.sum() else None
    return _ign_report(
        vacuum if winner is None else terms[winner],
        "I_s lower bound",
        winning_restart=winner,
        accepted_moves=accepted,
        objective_evaluations=1 + cfg.restarts * (1 + cfg.iterations_per_restart),
    )

