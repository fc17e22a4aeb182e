"""Shared generators, reference checks and brute-force ERM oracles.

Random classes and samples are built here, not in the package: the package
only ships the named constructions.  Everything takes an explicit
random.Random so test runs are reproducible.  The reference checks compare
a class's derived views with loops over single labels.

``oracle_standard`` and ``oracle_privileged`` are the one statement of each
risk minimizer as a scan over members, counted from the raw losses
``zero_one_loss`` and ``ignoring_loss``; every solver test compares with
them.
"""

import random
from fractions import Fraction

from priverm import (
    FiniteDomain,
    Hypothesis,
    HypothesisClass,
    Triple,
    TripleSample,
    ignoring_loss,
    zero_one_loss,
)
from priverm.erm import error_matrix, flag_matrix

# pair count of a "large" solver instance: far past what the small random
# tests reach
LARGE_PAIRS = 4096


def rand_class(rng: random.Random, domain_size: int, n_members: int,
               label: str = "X") -> HypothesisClass:
    """Random class of at most n_members distinct labelings."""
    dom = FiniteDomain(domain_size, label)
    patterns = {
        tuple(rng.randint(0, 1) for _ in range(domain_size))
        for _ in range(n_members)
    }
    return HypothesisClass.from_hypotheses(
        dom, (Hypothesis(dom, p) for p in patterns)
    )


def rand_sample(rng: random.Random, n_x: int, n_xstar: int, m: int) -> TripleSample:
    return TripleSample(
        tuple(
            Triple(rng.randrange(n_x), rng.randrange(n_xstar), rng.randint(0, 1))
            for _ in range(m)
        )
    )


def check_views_match_the_per_label_definitions(cls: HypothesisClass) -> None:
    """``columns``, ``mask`` and ``to_bitstring`` against per-label loops."""
    assert list(cls.columns) == [
        sum(h.bits[p] << i for i, h in enumerate(cls.members))
        for p in range(cls.domain.size)
    ]
    for h in cls:
        assert h.mask == sum(b << i for i, b in enumerate(h.bits))
        assert h.to_bitstring() == "".join(str(b) for b in h.bits)


def check_matrices_match_the_per_label_definitions(H, Phi, points) -> None:
    """``error_matrix`` and ``flag_matrix`` against per-label loops."""
    E, G = error_matrix(H, points), flag_matrix(Phi, points)
    assert E.dtype == G.dtype == "int64"
    assert E.tolist() == [[int(h.bits[t.x] != t.y) for t in points] for h in H]
    assert G.tolist() == [[phi.bits[t.xstar] for t in points] for phi in Phi]


def oracle_standard(H, triples) -> tuple:
    """(i, n): the first member of H with the fewest errors, and that count."""
    errors = [sum(zero_one_loss(h.bits[t.x], t.y) for t in triples) for h in H]
    n = min(errors)
    return errors.index(n), n


def oracle_privileged(H, Phi, triples, C) -> tuple:
    """(total, n_ig, i, j, n_u) of the pair the privileged minimizer picks.

    Every pair (H[i], Phi[j]) has n_ig flagged triples and n_u errors of h
    on triples phi does not flag; the pick has the smallest exact key
    (n_ig / C + n_u, n_ig, i, j), and total is its first entry.  C is read
    as ``core.positive_cost`` reads it: floats through their repr.
    """
    Cf = Fraction(str(C)) if isinstance(C, float) else Fraction(C)
    errs = [[zero_one_loss(h.bits[t.x], t.y) for t in triples] for h in H]
    flags = [[ignoring_loss(phi.bits[t.xstar], t.y) for t in triples] for phi in Phi]
    best = None
    for i, err in enumerate(errs):
        for j, flag in enumerate(flags):
            n_ig = sum(flag)
            n_u = sum(max(e - g, 0) for e, g in zip(err, flag))
            key = (Fraction(n_ig) / Cf + n_u, n_ig, i, j, n_u)
            if best is None or key < best:
                best = key
    return best
