"""Standard and privileged empirical risk minimization over finite classes.

The privileged solver minimizes the summed composite loss over all (h, phi)
pairs.  For binary losses the sum collapses to n_flagged/C + n_unexplained,
so pairs are compared with exact rational arithmetic on sample-index
bitmasks; no float enters until the result is reported.  Ties are broken by
(objective, flagged count, h index, phi index), so solver output is a
deterministic function of the canonical class orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import DomainMismatchError, Hypothesis, HypothesisClass, TripleSample

PAIR_SCAN_LIMIT = 4096


@dataclass(frozen=True)
class ErmResult:
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


@dataclass(frozen=True)
class PrivilegedErmResult:
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


def _outside_domain(S: TripleSample, index: str, cls: HypothesisClass) -> DomainMismatchError:
    """The error for a sample whose ``index`` field leaves the class domain."""
    top = max(getattr(t, index) for t in S.triples)
    return DomainMismatchError(
        f"sample {index} index {top} outside domain of size {cls.domain.size}"
    )


def _error_masks(H: HypothesisClass, S: TripleSample) -> list[int]:
    """Per-member bitmask of misclassified sample indices."""
    masks = []
    try:
        for h in H.members:
            m = 0
            for i, t in enumerate(S.triples):
                if h.bits[t.x] != t.y:
                    m |= 1 << i
            masks.append(m)
    except IndexError:
        raise _outside_domain(S, "x", H) from None
    return masks


def _flag_masks(Phi: HypothesisClass, S: TripleSample) -> list[int]:
    """Per-member bitmask of flagged sample indices."""
    masks = []
    try:
        for phi in Phi.members:
            m = 0
            for i, t in enumerate(S.triples):
                if phi.bits[t.xstar]:
                    m |= 1 << i
            masks.append(m)
    except IndexError:
        raise _outside_domain(S, "xstar", Phi) from None
    return masks


def erm_standard(H: HypothesisClass, S: TripleSample) -> ErmResult:
    """Member with the fewest sample errors; ties go to the first member."""
    if len(H) == 0:
        raise ValueError("class must be nonempty")
    best_idx, best_errs = 0, None
    counts = []
    for idx, mask in enumerate(_error_masks(H, S)):
        n = mask.bit_count()
        counts.append(n)
        if best_errs is None or n < best_errs:
            best_idx, best_errs = idx, n
    return ErmResult(
        h=H[best_idx],
        empirical_error=best_errs / S.m if S.m else 0.0,
        minimizer_count=sum(1 for n in counts if n == best_errs),
        n_errors=best_errs,
    )


def _as_fraction(C: Union[int, float, Fraction]) -> Fraction:
    if isinstance(C, float):
        return Fraction(str(C))
    return Fraction(C)


def erm_privileged(
    H: HypothesisClass,
    Phi: HypothesisClass,
    S: TripleSample,
    C: Union[int, float, Fraction] = 1,
) -> PrivilegedErmResult:
    """Pair minimizing sum over the sample of flagged/C + [error - flagged]_+.

    Each flagged example costs 1/C regardless of h; each unflagged error
    costs 1.  Small problems are solved by a full pair scan; larger ones
    iterate phi by ascending flag count and prune once the flag cost alone
    exceeds the incumbent.
    """
    if len(H) == 0 or len(Phi) == 0:
        raise ValueError("both classes must be nonempty")
    Cf = _as_fraction(C)
    if Cf <= 0:
        raise ValueError(f"C must be positive, got {C}")

    errs = _error_masks(H, S)
    flags = _flag_masks(Phi, S)

    # (objective_sum, n_ignored, h index, phi index), all exact
    best: tuple = ()
    phi_order = range(len(flags))
    if len(H) * len(Phi) > PAIR_SCAN_LIMIT:
        phi_order = sorted(phi_order, key=lambda j: (flags[j].bit_count(), j))

    for j in phi_order:
        fl = flags[j]
        n_ig = fl.bit_count()
        floor_cost = Fraction(n_ig) / Cf
        if best and floor_cost > best[0]:
            if isinstance(phi_order, range):
                continue
            break  # ascending flag count: every later phi is dominated too
        for i, em in enumerate(errs):
            n_u = (em & ~fl).bit_count()
            cand = (floor_cost + n_u, n_ig, i, j)
            if not best or cand < best:
                best = cand
    obj_sum, n_ig, hi, pj = best
    n_u = (errs[hi] & ~flags[pj]).bit_count()
    m = S.m
    return PrivilegedErmResult(
        h=H[hi],
        phi=Phi[pj],
        objective=float(obj_sum / m) if m else 0.0,
        ignored_weight=n_ig / m if m else 0.0,
        unexplained_error=n_u / m if m else 0.0,
        n_ignored=n_ig,
        n_unexplained=n_u,
    )


def empirical_stats(
    h: Hypothesis, phi: Hypothesis, S: TripleSample
) -> tuple[float, float, float]:
    """(flagged fraction, unexplained-error fraction, raw error fraction)."""
    if S.m == 0:
        return 0.0, 0.0, 0.0
    n_ig = n_u = n_err = 0
    for t in S.triples:
        flagged = phi.bits[t.xstar] == 1
        errored = h.bits[t.x] != t.y
        n_ig += flagged
        n_err += errored
        n_u += errored and not flagged
    return n_ig / S.m, n_u / S.m, n_err / S.m