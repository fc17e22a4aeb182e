"""Generators for the workbench's named constructions.

Each generator reproduces one explicit object studied by the workbench: the
triplet-product classes whose joint loss class has VC dimension 3d (three
times each factor's dimension), the union classes meeting the d+d*+1 bound
with equality, the d+d*-2 point set shattered by the auxiliary loss, and the
paired-mass distribution family that makes empirical flag rates deviate.
Public names follow the verification-suite tokens used across the CLI and
acceptance tests.
"""

from __future__ import annotations

from itertools import chain, product
from typing import NamedTuple, Optional, Sequence

from .core import (
    FiniteDistribution,
    FiniteDomain,
    Hypothesis,
    HypothesisClass,
    InputError,
    Triple,
    strict_int,
)
from .vc import aux_mask, product_patterns, vc_dimension

# the d=1 classes: VC 1 each, joint loss class VC 3
H1_PATTERNS = ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0))
PHI1_PATTERNS = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1))

# 4^d members materialized eagerly; capped to keep everything desk-scale
MAX_FOLD = 5


def _triplet_product(
    patterns: Sequence[Sequence[int]], d: int, domain: FiniteDomain
) -> HypothesisClass:
    """The d-fold product of ``patterns``, one triplet of points per factor.

    Swapping two triplets maps the product onto itself, so the class carries
    the d-1 swaps of adjacent triplets as its symmetries.
    """
    members = []
    for combo in product(patterns, repeat=d):
        members.append(Hypothesis(domain, tuple(chain.from_iterable(combo))))
    swaps = []
    for b in range(d - 1):
        g = list(range(3 * d))
        g[3 * b : 3 * b + 6] = g[3 * b + 3 : 3 * b + 6] + g[3 * b : 3 * b + 3]
        swaps.append(tuple(g))
    return HypothesisClass.from_hypotheses(domain, members, tuple(swaps))


def construct_theorem1(d: int) -> tuple[HypothesisClass, HypothesisClass]:
    """Classes of VC dimension d each whose joint loss class reaches VC 3d.

    d=1 returns the explicit four-member classes over 3 points; larger d
    returns their d-fold products, one independent triplet of points per
    factor.
    """
    if d < 1:
        raise InputError(f"d must be >= 1, got {d}")
    if d > MAX_FOLD:
        raise InputError(f"d capped at {MAX_FOLD} (4^d members), got {d}")
    dom = FiniteDomain(3 * d, "X")
    sdom = FiniteDomain(3 * d, "X*")
    return (
        _triplet_product(H1_PATTERNS, d, dom),
        _triplet_product(PHI1_PATTERNS, d, sdom),
    )


def full_class(n: int, label: str = "X") -> HypothesisClass:
    """All 2^n labelings of an n-point domain; VC dimension n."""
    if not 1 <= n <= 12:
        raise InputError(f"n must be in [1, 12], got {n}")
    dom = FiniteDomain(n, label)
    return HypothesisClass.from_hypotheses(
        dom, (Hypothesis(dom, bits) for bits in product((0, 1), repeat=n))
    )


def construct_lemma1_tight(d: int, dstar: int) -> tuple[HypothesisClass, HypothesisClass]:
    """Classes over d+dstar+1 points whose union has VC dimension d+dstar+1.

    H holds every labeling with at most d ones, J every labeling with at
    most dstar zeros; individually they have VC dimensions d and dstar.
    """
    if d < 0 or dstar < 0:
        raise InputError("d and dstar must be nonnegative")
    n = d + dstar + 1
    if n > 20:
        raise InputError(f"domain of {n} points is past desk scale")
    dom = FiniteDomain(n, "X")
    hs, js = [], []
    for bits in product((0, 1), repeat=n):
        ones = sum(bits)
        if ones <= d:
            hs.append(Hypothesis(dom, bits))
        if n - ones <= dstar:
            js.append(Hypothesis(dom, bits))
    return (
        HypothesisClass.from_hypotheses(dom, hs),
        HypothesisClass.from_hypotheses(dom, js),
    )


def construct_lemma2_witness(
    H: HypothesisClass, Phi: HypothesisClass
) -> tuple[Triple, ...]:
    """A set of d+d*-2 triples shattered by the auxiliary loss class.

    Uses the lexicographically first shattered sets {x_1..x_d} of H and
    {x*_1..x*_d*} of Phi: the first d-1 x-points are paired with the last
    x*-point, and the last x-point with the first d*-1 x*-points, all with
    label 0.  Requires d, d* > 1.  The witness is checked before it is
    returned: ``product_patterns`` must find all 2^(d+d*-2) aux patterns
    on it.  No aux class is built.
    """
    hrep = vc_dimension(H, budget=None)
    prep = vc_dimension(Phi, budget=None)
    if hrep.vc <= 1 or prep.vc <= 1:
        raise InputError(
            f"both dimensions must exceed 1, got d={hrep.vc}, d*={prep.vc}"
        )
    xs, xss = hrep.witness, prep.witness
    c1 = [Triple(xs[i], xss[-1], 0) for i in range(len(xs) - 1)]
    c2 = [Triple(xs[-1], xss[j], 0) for j in range(len(xss) - 1)]
    witness = tuple(c1 + c2)
    patterns = product_patterns(H, Phi, [(t.x, t.xstar, t.y) for t in witness], aux_mask)
    if len(patterns) != 1 << len(witness):
        raise AssertionError("constructed witness is not shattered")
    return witness


def _mass_gap(eps: float, delta: float) -> float:
    """alpha = 8*eps/(1-8*delta), the Theorem 5 family's mass gap within each pair."""
    return 8.0 * eps / (1.0 - 8.0 * delta)


class Theorem5Family(NamedTuple):
    """Paired-mass distribution family over a shattered set of Phi.

    The shattered set is split into pairs (a_i, b_i); within each pair one
    element carries mass (1+alpha)/D and the other (1-alpha)/D, where D is
    the (even) number of points used and heavy_side[i]=1 puts the heavy
    mass on b_i.  phi_star flags exactly the light element of every pair,
    so its true flag rate is (1-alpha)/2.
    """

    pairs: tuple[tuple[int, int], ...]
    eps: float
    delta: float
    heavy_side: tuple[int, ...]
    phi_star: Hypothesis
    distribution: FiniteDistribution

    @property
    def alpha(self) -> float:
        """The mass gap within each pair."""
        return _mass_gap(self.eps, self.delta)

    @property
    def n_points(self) -> int:
        """D, the even number of support points."""
        return 2 * len(self.pairs)

    def true_flag_rate(self, phi: Hypothesis) -> float:
        """Exact P[phi flags X] under the family distribution."""
        total = 0.0
        for t, p in self.distribution.support:
            if phi.bits[t.xstar]:
                total += p
        return total


def construct_theorem5_family(
    Phi: HypothesisClass,
    eps: float,
    delta: float,
    heavy_side: Optional[Sequence[int]] = None,
) -> tuple[Theorem5Family, FiniteDistribution]:
    """Build the hard distribution for empirical flag-rate minimization.

    Takes the lexicographically first shattered set of Phi (trimmed to even
    size), partitions it into consecutive pairs, and assigns the paired
    masses chosen by heavy_side, a sequence of one 0/1 bit per pair
    (default: all a_i heavy).  Requires the mass gap alpha in (0,1).
    """
    if not 0.0 < delta < 0.125:
        raise InputError(f"delta must be in (0, 1/8), got {delta}")
    alpha = _mass_gap(eps, delta)
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha = {alpha} outside (0,1); shrink eps or delta")
    rep = vc_dimension(Phi, budget=None)
    if rep.vc < 2:
        raise InputError(f"need VC(Phi) >= 2, got {rep.vc}")
    D = rep.vc - (rep.vc % 2)
    points = rep.witness[:D]
    pairs = tuple((points[2 * i], points[2 * i + 1]) for i in range(D // 2))
    if heavy_side is None:
        heavy_side = (0,) * len(pairs)
    if not isinstance(heavy_side, Sequence):
        raise InputError(f"heavy_side must be a sequence of bits, got {heavy_side!r}")
    heavy_side = tuple(strict_int(b, "heavy_side bit") for b in heavy_side)
    if any(b not in (0, 1) for b in heavy_side):
        raise InputError(f"heavy_side bits must be 0 or 1, got {list(heavy_side)}")
    if len(heavy_side) != len(pairs):
        raise InputError(
            f"heavy_side needs {len(pairs)} bits, got {len(heavy_side)}"
        )

    heavy, light = (1.0 + alpha) / D, (1.0 - alpha) / D
    support = []
    for (a, b), side in zip(pairs, heavy_side):
        support.append((Triple(0, a, 0), light if side else heavy))
        support.append((Triple(0, b, 0), heavy if side else light))
    dist = FiniteDistribution(tuple(support))

    # phi_star flags the light element of each pair; first matching member
    want = {}
    for (a, b), side in zip(pairs, heavy_side):
        want[a] = side
        want[b] = 1 - side
    phi_star = next(
        (
            phi
            for phi in Phi.members
            if all(phi.bits[p] == v for p, v in want.items())
        ),
        None,
    )
    if phi_star is None:
        raise AssertionError("shattered set admits no flag pattern; engine bug")

    family = Theorem5Family(
        pairs=pairs,
        eps=eps,
        delta=delta,
        heavy_side=heavy_side,
        phi_star=phi_star,
        distribution=dist,
    )
    return family, dist


def phi_prime_subclass(
    Phi: HypothesisClass, pairs: Sequence[tuple[int, int]]
) -> HypothesisClass:
    """Members flagging exactly one element of every pair."""
    keep = [
        phi
        for phi in Phi.members
        if all(phi.bits[a] != phi.bits[b] for a, b in pairs)
    ]
    if not keep:
        raise InputError("no members flag one element per pair")
    return HypothesisClass.from_hypotheses(Phi.domain, keep)
