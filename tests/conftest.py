"""Shared generators and reference checks for randomized tests.

Random classes and samples are built here, not in the package: the package
only ships the named constructions.  Everything takes an explicit
random.Random so test runs are reproducible.  The reference checks compare
a class's derived views with loops over single labels.
"""

import random

from priverm import FiniteDomain, Hypothesis, HypothesisClass, Triple, TripleSample
from priverm.erm import error_matrix, flag_matrix


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
