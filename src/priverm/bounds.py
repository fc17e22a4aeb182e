"""Rate functions, generalization bounds, and bound-comparison conditions.

Everything here is plain float arithmetic on the closed-form expressions:
the fast/slow rates, the two error bounds they induce, the auxiliary
dimension interval, and the exact pre-asymptotic forms of the sufficient
and necessary conditions for the privileged bound to win.  Each bound and
the sufficient condition are stated once, as functions of the empirical
errors and the ``r_fast`` rates (``erm_bound``, ``pr_bound``,
``sufficiency``); ``bound_erm``, ``bound_pr`` and ``sufficient_condition``
compute the rates from a ``BoundInputs`` and call them, and a comparison
run computes its three rates once and calls them per outcome.  Asymptotic
variants (anything with an o(1)) are reported as annotations, never
evaluated.  The source formulas write bare "log"; the concentration-bound
lineage behind them is natural-log, so every rate uses ``math.log``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# BoundInputs and its PREMISE_TOLERANCE live in core, so the CLI's parser reads
# the fields without loading this module; both still resolve here
from .core import (
    PREMISE_TOLERANCE,
    BoundInputs,
    InputError,
    check_delta,
    check_float,
    check_m,
)

# upper factor of the auxiliary-dimension interval: 4*log2(4e)
AUX_UPPER_FACTOR = 4.0 * math.log2(4.0 * math.e)


def r_fast(d: int, m: int, delta: float) -> float:
    """(8*d*log(m+1) + 4*log(4/delta)) / m.

    An m or d too large for a float raises ``InputError``, as in ``BoundInputs``.
    """
    check_m(m)
    check_delta(delta)
    if d < 0:
        raise InputError(f"d must be >= 0, got {d}")
    check_float(m, "m")
    check_float(d, "d")
    return (8.0 * d * math.log(m + 1) + 4.0 * math.log(4.0 / delta)) / m


def r_slow(x: float, d: int, m: int, delta: float) -> float:
    """sqrt(x * r_fast(d, m, delta))."""
    if not 0.0 <= x <= 1.0:
        raise InputError(f"x must be in [0,1], got {x}")
    return math.sqrt(x * r_fast(d, m, delta))


def erm_bound(eps_erm: float, rf_d: float) -> float:
    """eps_erm + sqrt(eps_erm * rf_d) + rf_d, for rf_d = r_fast(d, m, delta)."""
    return eps_erm + math.sqrt(eps_erm * rf_d) + rf_d


def pr_bound(eps_ig: float, eps_u: float, rf_star: float, rf_aux: float) -> float:
    """eps_ig + eps_u + sqrt(eps_ig * rf_star) + sqrt(eps_u * rf_aux) + rf_star + rf_aux,
    for the r_fast rates of dstar and d_a."""
    return (
        eps_ig
        + eps_u
        + math.sqrt(eps_ig * rf_star)
        + math.sqrt(eps_u * rf_aux)
        + rf_star
        + rf_aux
    )


def bound_erm(inputs: BoundInputs) -> float:
    """Error bound for the standard minimizer; can exceed 1, never clamped."""
    return erm_bound(inputs.eps_erm, r_fast(inputs.d, inputs.m, inputs.delta))


def bound_pr(inputs: BoundInputs) -> float:
    """Error bound for the privileged minimizer, holding with 1 - 2*delta."""
    m, delta = inputs.m, inputs.delta
    return pr_bound(
        inputs.eps_ig, inputs.eps_u, r_fast(inputs.dstar, m, delta), r_fast(inputs.d_a, m, delta)
    )


def d_a_interval(d: int, dstar: int) -> tuple[float, float]:
    """Provable range for the auxiliary class dimension.

    Lower bound d + dstar - 2 applies only when both dimensions exceed 1;
    the upper bound 4*log2(4e)*(d + dstar + 1) always applies.
    """
    if d < 0 or dstar < 0:
        raise InputError("dimensions must be nonnegative")
    lower = d + dstar - 2 if (d > 1 and dstar > 1) else 0
    return float(lower), AUX_UPPER_FACTOR * (d + dstar + 1)


class SufficiencyReport(NamedTuple):
    """Exact test of the condition guaranteeing bound_pr <= bound_erm."""

    holds: bool
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return self._asdict()


def sufficient_condition(inputs: BoundInputs) -> SufficiencyReport:
    """sqrt(eps_u) against the slack left by moving from d to (d*, d_a) rates.

    Requires the decomposition premise (``inputs.premise_holds``), else
    ``InputError``.  When it returns holds=True, bound_pr <= bound_erm
    follows; with eps_erm = 0 the right side is negative and the condition
    can never hold.
    """
    if not inputs.premise_holds:
        gap = inputs.eps_erm - (inputs.eps_ig + inputs.eps_u)
        raise InputError(f"premise eps_erm = eps_ig + eps_u violated by {gap:.3g}")
    m, delta = inputs.m, inputs.delta
    return sufficiency(
        inputs.eps_erm,
        inputs.eps_u,
        r_fast(inputs.d, m, delta),
        r_fast(inputs.dstar, m, delta),
        r_fast(inputs.d_a, m, delta),
    )


def sufficiency(
    eps_erm: float, eps_u: float, rf_d: float, rf_star: float, rf_aux: float
) -> SufficiencyReport:
    """The sufficient condition on the r_fast rates of d, dstar and d_a.

    Meaningful only where ``core.premise_holds(eps_erm, eps_ig, eps_u)``;
    ``sufficient_condition`` checks that, this does not.
    """
    rs_d, rs_star, rs_aux = math.sqrt(rf_d), math.sqrt(rf_star), math.sqrt(rf_aux)
    lhs = math.sqrt(eps_u)
    rhs = math.sqrt(eps_erm) * (rs_d - rs_star) / rs_aux + (rf_d - rf_star - rf_aux) / rs_aux
    return SufficiencyReport(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


class NecessityReport(NamedTuple):
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
        return self._asdict()


def necessary_condition(inputs: BoundInputs) -> NecessityReport:
    """Evaluate the bound comparison and its exact necessary inequality."""
    if inputs.d == 0:
        raise InputError("d must be positive to form alpha = dstar/d")
    b_e = bound_erm(inputs)
    b_p = bound_pr(inputs)
    a_const = math.log(4.0 / inputs.delta) / (2.0 * math.log(inputs.m + 1))
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


def _alpha_root() -> float:
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


_ALPHA_ROOT = _alpha_root()


def alpha_threshold() -> float:
    """Root in (2, 2.25) of a^3 - 2a^2 - a + 1 = 0 (see ``_alpha_root``).

    The bisection runs once, at import; every call returns its float.
    """
    return _ALPHA_ROOT
