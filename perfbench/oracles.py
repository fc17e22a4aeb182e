"""Reference computations the benchmark checks the program against.

Nothing here imports ``priverm`` or the repository's tests.  Classes are
given as sequences of bit tuples (``bits[i]`` is the label of point i) and
samples as ``(x, xstar, y)`` tuples, so every oracle works from the raw
inputs alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

Bits = Sequence[int]
Triple = tuple[int, int, int]


def projection(members: Sequence[Bits], subset: Sequence[int]) -> set[tuple[int, ...]]:
    """Distinct labelings the members induce on the points of ``subset``."""
    return {tuple(h[p] for p in subset) for h in members}


def shatters(members: Sequence[Bits], subset: Sequence[int]) -> bool:
    return len(projection(members, subset)) == 1 << len(subset)


def shattered_counts(members: Sequence[Bits], n_points: int) -> list[int]:
    """counts[k] = number of shattered k-subsets, by enumerating every subset.

    A subset of a shattered set is shattered, so the scan stops at the first
    size with no shattered subset.
    """
    counts = [1]
    for k in range(1, n_points + 1):
        c = sum(1 for s in combinations(range(n_points), k) if shatters(members, s))
        if c == 0:
            break
        counts.append(c)
    return counts


def vc_oracle(members: Sequence[Bits], n_points: int) -> tuple[int, tuple[int, ...]]:
    """(VC dimension, lexicographically first shattered set of that size)."""
    best: tuple[int, ...] = ()
    for k in range(1, n_points + 1):
        if (1 << k) > len(members):
            break
        first = next(
            (s for s in combinations(range(n_points), k) if shatters(members, s)),
            None,
        )
        if first is None:
            break
        best = first
    return len(best), best


def erm_standard_oracle(H: Sequence[Bits], sample: Sequence[Triple]) -> tuple[int, int]:
    """(fewest sample errors, index of the first member reaching it)."""
    errors = [sum(h[x] != y for x, _, y in sample) for h in H]
    best = min(errors)
    return best, errors.index(best)


def erm_privileged_oracle(
    H: Sequence[Bits], Phi: Sequence[Bits], sample: Sequence[Triple], C: Fraction
) -> tuple[Fraction, int, int, int, int]:
    """Brute-force privileged ERM over every (h, phi) pair.

    Returns ``(objective_sum, n_flagged, h index, phi index, n_unexplained)``
    of the minimiser under the tie order (objective, n_flagged, h index,
    phi index).  The objective is summed triple by triple as an exact
    ``Fraction``: a flagged triple costs 1/C, an unflagged error costs 1.
    """
    best = None
    for i, h in enumerate(H):
        for j, phi in enumerate(Phi):
            objective = Fraction(0)
            n_flagged = n_unexplained = 0
            for x, xstar, y in sample:
                flagged = phi[xstar] == 1
                if flagged:
                    objective += 1 / C
                    n_flagged += 1
                elif h[x] != y:
                    objective += 1
                    n_unexplained += 1
            key = (objective, n_flagged, i, j, n_unexplained)
            if best is None or key[:4] < best[:4]:
                best = key
    return best


# --- closed forms -------------------------------------------------------------


def r_fast(d: int, m: int, delta: float) -> float:
    """Fast rate (8 d log(m+1) + 4 log(4/delta)) / m, natural logarithm."""
    return (8.0 * d * math.log(m + 1) + 4.0 * math.log(4.0 / delta)) / m


def bound_erm(eps_erm: float, d: int, m: int, delta: float) -> float:
    rf = r_fast(d, m, delta)
    return eps_erm + math.sqrt(eps_erm * rf) + rf


def bound_pr(
    eps_ig: float, eps_u: float, dstar: int, d_a: int, m: int, delta: float
) -> float:
    rs = r_fast(dstar, m, delta)
    ra = r_fast(d_a, m, delta)
    return eps_ig + eps_u + math.sqrt(eps_ig * rs) + math.sqrt(eps_u * ra) + rs + ra


def d_a_range(d: int, dstar: int) -> tuple[int, float]:
    """[d + d* - 2, 4 log2(4e) (d + d* + 1)], the sandwich on the aux dimension."""
    return d + dstar - 2, 4.0 * math.log2(4.0 * math.e) * (d + dstar + 1)
