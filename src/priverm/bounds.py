"""Rate functions, generalization bounds, and bound-comparison conditions.

Everything here is plain float arithmetic on the closed-form expressions:
the fast/slow rates, the two error bounds they induce, the auxiliary
dimension interval, and the exact pre-asymptotic forms of the sufficient
and necessary conditions for the privileged bound to win.  Asymptotic
variants (anything with an o(1)) are reported as annotations, never
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# All rates use this logarithm.  The source formulas write bare "log"; the
# concentration-bound lineage behind them is natural-log, so that is the
# default.  Swap here (e.g. to math.log2) for sensitivity runs.
_log = math.log

PREMISE_TOLERANCE = 1e-9

# upper factor of the auxiliary-dimension interval: 4*log2(4e)
AUX_UPPER_FACTOR = 4.0 * math.log2(4.0 * math.e)


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by every bound and condition check."""

    m: int
    delta: float
    d: int
    dstar: int
    d_a: int
    eps_erm: float = 0.0
    eps_ig: float = 0.0
    eps_u: float = 0.0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        for name in ("d", "dstar", "d_a"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        for name in ("m", "d", "dstar", "d_a"):
            try:
                float(getattr(self, name))
            except OverflowError:
                raise ValueError(f"{name} is too large for a float") from None
        for name in ("eps_erm", "eps_ig", "eps_u"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")


def r_fast(d: int, m: int, delta: float) -> float:
    """(8*d*log(m+1) + 4*log(4/delta)) / m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    return (8.0 * d * _log(m + 1) + 4.0 * _log(4.0 / delta)) / m


def r_slow(x: float, d: int, m: int, delta: float) -> float:
    """sqrt(x * r_fast(d, m, delta))."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0,1], got {x}")
    return math.sqrt(x * r_fast(d, m, delta))


def bound_erm(inputs: BoundInputs) -> float:
    """Error bound for the standard minimizer; can exceed 1, never clamped."""
    rf = r_fast(inputs.d, inputs.m, inputs.delta)
    return inputs.eps_erm + math.sqrt(inputs.eps_erm * rf) + rf


def bound_pr(inputs: BoundInputs) -> float:
    """Error bound for the privileged minimizer, holding with 1 - 2*delta."""
    rf_star = r_fast(inputs.dstar, inputs.m, inputs.delta)
    rf_aux = r_fast(inputs.d_a, inputs.m, inputs.delta)
    return (
        inputs.eps_ig
        + inputs.eps_u
        + math.sqrt(inputs.eps_ig * rf_star)
        + math.sqrt(inputs.eps_u * rf_aux)
        + rf_star
        + rf_aux
    )


def d_a_interval(d: int, dstar: int) -> tuple[float, float]:
    """Provable range for the auxiliary class dimension.

    Lower bound d + dstar - 2 applies only when both dimensions exceed 1;
    the upper bound 4*log2(4e)*(d + dstar + 1) always applies.
    """
    if d < 0 or dstar < 0:
        raise ValueError("dimensions must be nonnegative")
    lower = d + dstar - 2 if (d > 1 and dstar > 1) else 0
    return float(lower), AUX_UPPER_FACTOR * (d + dstar + 1)


@dataclass(frozen=True)
class SufficiencyReport:
    """Exact test of the condition guaranteeing bound_pr <= bound_erm."""

    holds: bool
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return {"holds": self.holds, "lhs": self.lhs, "rhs": self.rhs}


def sufficient_condition(inputs: BoundInputs) -> SufficiencyReport:
    """sqrt(eps_u) against the slack left by moving from d to (d*, d_a) rates.

    Requires the decomposition premise eps_erm = eps_ig + eps_u (within
    PREMISE_TOLERANCE).  When it returns holds=True, bound_pr <= bound_erm
    follows; with eps_erm = 0 the right side is negative and the condition
    can never hold.
    """
    gap = inputs.eps_erm - (inputs.eps_ig + inputs.eps_u)
    if abs(gap) > PREMISE_TOLERANCE:
        raise ValueError(
            f"premise eps_erm = eps_ig + eps_u violated by {gap:.3g}"
        )
    m, delta = inputs.m, inputs.delta
    rf_d = r_fast(inputs.d, m, delta)
    rf_star = r_fast(inputs.dstar, m, delta)
    rf_aux = r_fast(inputs.d_a, m, delta)
    rs_d, rs_star, rs_aux = math.sqrt(rf_d), math.sqrt(rf_star), math.sqrt(rf_aux)
    lhs = math.sqrt(inputs.eps_u)
    rhs = (
        math.sqrt(inputs.eps_erm) * (rs_d - rs_star) / rs_aux
        + (rf_d - rf_star - rf_aux) / rs_aux
    )
    return SufficiencyReport(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class NecessityReport:
    """What bound_pr <= bound_erm forces on the empirical quantities.

    ``lemma5_*`` is the exact consequence inequality
    sqrt(eps_u*(d_a+A)) <= sqrt(eps_erm*(d+A)) - sqrt(eps_ig*(dstar+A)),
    valid whenever eps_erm <= eps_ig + eps_u and d_a >= d + dstar - 2.
    ``alpha`` = dstar/d is reported against the exact threshold root; the
    asymptotic claim alpha <= root + o(1) is an annotation, not a check.
    """

    b_erm: float
    b_pr: float
    pr_leq_erm: bool
    lemma5_lhs: float
    lemma5_rhs: float
    lemma5_holds: bool
    a_const: float
    alpha: float
    alpha_root: float

    def to_json(self) -> dict:
        return {
            "b_erm": self.b_erm,
            "b_pr": self.b_pr,
            "pr_leq_erm": self.pr_leq_erm,
            "lemma5_lhs": self.lemma5_lhs,
            "lemma5_rhs": self.lemma5_rhs,
            "lemma5_holds": self.lemma5_holds,
            "a_const": self.a_const,
            "alpha": self.alpha,
            "alpha_root": self.alpha_root,
        }


def necessary_condition(inputs: BoundInputs) -> NecessityReport:
    """Evaluate the bound comparison and its exact necessary inequality."""
    if inputs.d == 0:
        raise ValueError("d must be positive to form alpha = dstar/d")
    b_e = bound_erm(inputs)
    b_p = bound_pr(inputs)
    a_const = _log(4.0 / inputs.delta) / (2.0 * _log(inputs.m + 1))
    lhs = math.sqrt(inputs.eps_u * (inputs.d_a + a_const))
    rhs = math.sqrt(inputs.eps_erm * (inputs.d + a_const)) - math.sqrt(
        inputs.eps_ig * (inputs.dstar + a_const)
    )
    return NecessityReport(
        b_erm=b_e,
        b_pr=b_p,
        pr_leq_erm=b_p <= b_e,
        lemma5_lhs=lhs,
        lemma5_rhs=rhs,
        lemma5_holds=lhs <= rhs,
        a_const=a_const,
        alpha=inputs.dstar / inputs.d,
        alpha_root=alpha_threshold(),
    )


def alpha_threshold() -> float:
    """Root in (2, 2.25) of a^3 - 2a^2 - a + 1 = 0, by bisection.

    Squaring sqrt(1+a)*(1 - 1/a) = 1 and clearing denominators gives this
    cubic; the root is where the necessary condition's coefficient changes
    sign.  The commonly quoted 2.25 is this root rounded up.
    """

    def f(a: float) -> float:
        return a * a * a - 2.0 * a * a - a + 1.0

    lo, hi = 2.0, 2.25
    for _ in range(64):
        mid = (lo + hi) / 2.0
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0