"""Standard and privileged empirical risk minimization over finite classes.

Both solvers see a sample only through its count vector over K points: the
distinct triples of one sample, or the support of a distribution when the
comparison experiment solves many drawn samples at once.  With E the
|H|×K error matrix and G the |Phi|×K flag matrix, one integer kernel scores
every row of a T×K count matrix: n_err = counts·Eᵀ, n_ig = counts·Gᵀ, and
per pair n_u = n_err − Σ_k counts·E·G.  For binary losses the summed
composite loss is n_ig/C + n_u, so with C = p/q pairs are ranked on the
integer key q·n_ig + p·n_u; no float enters until the result is reported.
Ties are broken by (objective, flagged count, h index, phi index), so solver
output is a deterministic function of the canonical class orders.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (
    Hypothesis,
    HypothesisClass,
    Triple,
    TripleSample,
    check_erm_inputs,
)

# Many count rows are processed in blocks whose largest temporaries, of shape
# (rows, |H|, |Phi|) here and (rows, |Phi|) in the deviation experiment, hold
# at most this many cells (128 KB at 8 bytes), so peak memory stays flat.
BLOCK_CELLS = 1 << 14

_INT64_MAX = np.iinfo(np.int64).max


class ErmResult(NamedTuple):
    """Minimizer of empirical zero-one error."""

    h: Hypothesis
    empirical_error: float
    minimizer_count: int
    n_errors: int

    def to_json(self) -> dict:
        return {
            "h": self.h.to_bitstring(),
            "empirical_error": self.empirical_error,
            "minimizer_count": self.minimizer_count,
        }


class PrivilegedErmResult(NamedTuple):
    """Minimizing pair of the composite objective.

    ``objective`` is the mean composite loss of the pair; at C=1 it equals
    ignored_weight + unexplained_error up to one float rounding.  The raw
    counts are kept so that identity is also checkable exactly.
    """

    h: Hypothesis
    phi: Hypothesis
    objective: float
    ignored_weight: float
    unexplained_error: float
    n_ignored: int
    n_unexplained: int

    def to_json(self) -> dict:
        return {
            "h": self.h.to_bitstring(),
            "phi": self.phi.to_bitstring(),
            "objective": self.objective,
            "ignored_weight": self.ignored_weight,
            "unexplained_error": self.unexplained_error,
        }


def _bits(cls: HypothesisClass) -> np.ndarray:
    """The |cls|×n label matrix, one row per member, read from the joined bits."""
    rows = b"".join([h.bits for h in cls.members])
    return np.frombuffer(rows, dtype=np.uint8).reshape(len(cls), cls.domain.size)


def error_matrix(H: HypothesisClass, points: Sequence[Triple]) -> np.ndarray:
    """E[i, k] = 1 iff member i of H misclassifies triple k."""
    x = np.array([t.x for t in points], dtype=np.intp)
    y = np.array([t.y for t in points], dtype=np.int64)
    return (_bits(H)[:, x] != y).astype(np.int64)


def flag_matrix(Phi: HypothesisClass, points: Sequence[Triple]) -> np.ndarray:
    """G[j, k] = 1 iff member j of Phi flags triple k."""
    xstar = np.array([t.xstar for t in points], dtype=np.intp)
    return _bits(Phi)[:, xstar].astype(np.int64)


class CountSolution(NamedTuple):
    """Both minimizers for every row of a count matrix.

    The four privileged fields are None when no flag matrix was given.
    """

    n_err: np.ndarray  # (T, |H|) errors of every member of H
    h_erm: np.ndarray  # (T,) first member with the fewest errors
    h_pr: Optional[np.ndarray]  # (T,) h index of the privileged pair
    phi_pr: Optional[np.ndarray]  # (T,) its phi index
    n_ig: Optional[np.ndarray]  # (T,) its flagged count
    n_u: Optional[np.ndarray]  # (T,) its unflagged-error count


def solve_counts(
    E: np.ndarray,
    counts: np.ndarray,
    G: Optional[np.ndarray] = None,
    C: Fraction = Fraction(1),
) -> CountSolution:
    """Exact standard (and, given G, privileged) minimizers per count row.

    The privileged pair minimizes (q·n_ig + p·n_u, n_ig, i, j) for C = p/q,
    folded into one integer key per pair so the first flat argmin is the
    winner.  Keys that could pass int64 are built from Python ints instead.
    """
    n_err = counts @ E.T
    h_erm = n_err.argmin(axis=1)
    if G is None:
        return CountSolution(n_err, h_erm, None, None, None, None)
    p, q = C.numerator, C.denominator
    top = int(counts.sum(axis=1).max(initial=0))
    # p and q are multiplied in as scalars, so each must fit too, even at top = 0
    dtype = np.int64 if max(p, q, (p + q) * top * (top + 1) + top) <= _INT64_MAX else object
    n_ig = counts @ G.T
    flat = []
    step = max(1, BLOCK_CELLS // (E.shape[0] * G.shape[0]))
    for lo in range(0, len(counts), step):
        block = counts[lo : lo + step]
        ig = n_ig[lo : lo + step, None, :]
        u = n_err[lo : lo + step, :, None] - (block[:, None, :] * E) @ G.T
        key = q * ig.astype(dtype, copy=False) + p * u.astype(dtype, copy=False)
        key = key * (top + 1) + ig
        flat.append(key.reshape(len(block), -1).argmin(axis=1))
    h_pr, phi_pr = np.divmod(np.concatenate(flat), G.shape[0])
    rows = np.arange(len(counts))
    n_u = n_err[rows, h_pr] - (counts * E[h_pr] * G[phi_pr]).sum(axis=1)
    return CountSolution(n_err, h_erm, h_pr, phi_pr, n_ig[rows, phi_pr], n_u)


def _sample_counts(S: TripleSample) -> tuple[list[Triple], np.ndarray]:
    """The sample's distinct triples and their counts as a 1×K matrix."""
    tally = Counter(S.triples)
    points = list(tally)
    return points, np.array([list(tally.values())], dtype=np.int64)


def erm_standard(H: HypothesisClass, S: TripleSample) -> ErmResult:
    """Member with the fewest sample errors; ties go to the first member."""
    check_erm_inputs(H, S)
    points, counts = _sample_counts(S)
    sol = solve_counts(error_matrix(H, points), counts)
    errs = sol.n_err[0]
    best = int(sol.h_erm[0])
    best_errs = int(errs[best])
    return ErmResult(
        h=H[best],
        empirical_error=best_errs / S.m if S.m else 0.0,
        minimizer_count=int((errs == best_errs).sum()),
        n_errors=best_errs,
    )


def erm_privileged(
    H: HypothesisClass,
    Phi: HypothesisClass,
    S: TripleSample,
    C: Union[int, float, Fraction] = 1,
) -> PrivilegedErmResult:
    """Pair minimizing sum over the sample of flagged/C + [error - flagged]_+.

    Each flagged example costs 1/C regardless of h; each unflagged error
    costs 1.  Every pair is scored by the count kernel; the exact Fraction
    objective is formed for the winner only.
    """
    Cf = check_erm_inputs(H, S, Phi, C)
    points, counts = _sample_counts(S)
    sol = solve_counts(error_matrix(H, points), counts, flag_matrix(Phi, points), Cf)
    hi, pj = int(sol.h_pr[0]), int(sol.phi_pr[0])
    n_ig, n_u = int(sol.n_ig[0]), int(sol.n_u[0])
    m = S.m
    return PrivilegedErmResult(
        h=H[hi],
        phi=Phi[pj],
        objective=float((Fraction(n_ig) / Cf + n_u) / m) if m else 0.0,
        ignored_weight=n_ig / m if m else 0.0,
        unexplained_error=n_u / m if m else 0.0,
        n_ignored=n_ig,
        n_unexplained=n_u,
    )
