"""Both risk minimizers against brute-force oracles built from the raw losses."""

import math
import random
from fractions import Fraction

import pytest

from priverm import (
    FiniteDomain,
    HypothesisClass,
    Triple,
    TripleSample,
    composite_loss,
    erm_privileged,
    erm_standard,
    ignoring_loss,
    zero_one_loss,
)
from priverm.core import DomainMismatchError, check_cost, positive_cost

from conftest import LARGE_PAIRS, oracle_privileged, oracle_standard, rand_class, rand_sample


# --- standard minimizer --------------------------------------------------------


def test_standard_realizable_gives_zero():
    dom = FiniteDomain(2)
    H = HypothesisClass.from_patterns(dom, [(0, 1), (1, 1)])
    S = TripleSample((Triple(0, 0, 0), Triple(1, 0, 1)))
    res = erm_standard(H, S)
    assert res.empirical_error == 0.0
    assert tuple(res.h.bits) == (0, 1)
    assert res.n_errors == 0


def test_standard_empty_sample_returns_first_member():
    dom = FiniteDomain(2)
    H = HypothesisClass.from_patterns(dom, [(1, 0), (0, 1)])
    res = erm_standard(H, TripleSample(()))
    assert res.empirical_error == 0.0
    assert res.h == H[0]
    assert res.minimizer_count == 2


def test_standard_tie_breaks_to_first_member():
    dom = FiniteDomain(3)
    H = HypothesisClass.from_patterns(dom, [(0, 0, 0), (1, 1, 1)])
    # each member errs on exactly one of the two examples
    S = TripleSample((Triple(0, 0, 0), Triple(1, 0, 1)))
    res = erm_standard(H, S)
    assert tuple(res.h.bits) == (0, 0, 0)
    assert res.minimizer_count == 2
    assert res.empirical_error == 0.5


def test_standard_rejects_empty_class():
    with pytest.raises(ValueError):
        erm_standard(HypothesisClass(FiniteDomain(1), ()), TripleSample(()))


def test_standard_matches_oracle():
    rng = random.Random(101)
    for _ in range(300):
        n_x = rng.randint(1, 5)
        H = rand_class(rng, n_x, rng.randint(1, 16))
        S = rand_sample(rng, n_x, 1, rng.randint(0, 20))
        res = erm_standard(H, S)
        i, n = oracle_standard(H, S)
        assert res.n_errors == n
        assert res.h == H[i]  # same tie-break: first member at the minimum


# --- privileged minimizer ------------------------------------------------------


def test_privileged_reduces_to_standard_when_phi_never_flags():
    rng = random.Random(7)
    for _ in range(50):
        n_x = rng.randint(1, 4)
        H = rand_class(rng, n_x, rng.randint(1, 8))
        Phi = HypothesisClass.from_patterns(FiniteDomain(2, "X*"), [(0, 0)])
        S = rand_sample(rng, n_x, 2, rng.randint(1, 15))
        pr = erm_privileged(H, Phi, S)
        std = erm_standard(H, S)
        assert pr.ignored_weight == 0.0
        assert pr.objective == std.empirical_error
        assert pr.unexplained_error == std.empirical_error
        assert pr.h == std.h


def test_privileged_realizable_with_zero_phi():
    domx = FiniteDomain(2, "X")
    doms = FiniteDomain(2, "X*")
    H = HypothesisClass.from_patterns(domx, [(0, 1)])
    Phi = HypothesisClass.from_patterns(doms, [(0, 0), (1, 1)])
    S = TripleSample((Triple(0, 0, 0), Triple(1, 1, 1)))
    res = erm_privileged(H, Phi, S)
    assert res.objective == 0.0
    assert tuple(res.phi.bits) == (0, 0)  # flagging anything would cost 1/C each


def test_privileged_empty_sample():
    domx = FiniteDomain(1, "X")
    doms = FiniteDomain(1, "X*")
    H = HypothesisClass.from_patterns(domx, [(0,)])
    Phi = HypothesisClass.from_patterns(doms, [(1,)])
    res = erm_privileged(H, Phi, TripleSample(()))
    assert res.objective == 0.0
    assert res.n_ignored == 0 and res.n_unexplained == 0


@pytest.mark.parametrize("C", [1e300, 1e-320])
def test_privileged_empty_sample_at_an_extreme_cost(C):
    # C = p/q with p or q past int64; an empty sample's keys are all 0, yet p and q
    # still enter them, so the kernel must take Python ints
    H = HypothesisClass.from_patterns(FiniteDomain(2, "X"), [(0, 1), (1, 0)])
    Phi = HypothesisClass.from_patterns(FiniteDomain(2, "X*"), [(0, 0), (1, 1)])
    want = erm_privileged(H, Phi, TripleSample(()), C=1)
    assert erm_privileged(H, Phi, TripleSample(()), C=C) == want


def test_privileged_validates_inputs():
    domx = FiniteDomain(1, "X")
    H = HypothesisClass.from_patterns(domx, [(0,)])
    with pytest.raises(ValueError):
        erm_privileged(H, HypothesisClass(FiniteDomain(1, "X*"), ()), TripleSample(()))
    Phi = HypothesisClass.from_patterns(FiniteDomain(1, "X*"), [(0,)])
    with pytest.raises(ValueError):
        erm_privileged(H, Phi, TripleSample(()), C=0)
    with pytest.raises(ValueError):
        erm_privileged(H, Phi, TripleSample(()), C=-1.5)


@pytest.mark.parametrize("C", [0, -1, -2.5, Fraction(-1, 3), math.nan, math.inf, -math.inf])
def test_every_check_of_c_is_one_rule(C):
    H = HypothesisClass.from_patterns(FiniteDomain(1, "X"), [(0,)])
    Phi = HypothesisClass.from_patterns(FiniteDomain(1, "X*"), [(0,)])
    for call in (
        lambda: check_cost(C),
        lambda: positive_cost(C),
        lambda: composite_loss(0, 1, C),
        lambda: erm_privileged(H, Phi, TripleSample(()), C),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"c must be positive and finite, got {C}"


def test_positive_cost_reads_floats_through_their_repr():
    assert positive_cost(0.1) == Fraction(1, 10)
    assert positive_cost(2) == positive_cost(Fraction(2)) == 2


def test_solvers_reject_sample_outside_class_domains():
    H = HypothesisClass.from_patterns(FiniteDomain(2, "X"), [(0, 1), (1, 1)])
    Phi = HypothesisClass.from_patterns(FiniteDomain(3, "X*"), [(0, 0, 1)])
    bad_x = TripleSample((Triple(0, 0, 1), Triple(2, 0, 0)))
    bad_xstar = TripleSample((Triple(1, 3, 1),))
    with pytest.raises(DomainMismatchError, match="sample x index 2 outside domain of size 2"):
        erm_standard(H, bad_x)
    with pytest.raises(DomainMismatchError, match="sample x index 2"):
        erm_privileged(H, Phi, bad_x)
    with pytest.raises(DomainMismatchError, match="sample xstar index 3 outside domain of size 3"):
        erm_privileged(H, Phi, bad_xstar)
    # x* is not read by the standard solver
    assert erm_standard(H, bad_xstar).n_errors == 0


def test_privileged_flagging_tie_prefers_fewer_flags():
    """Flagging an already-misclassified point is free at C=1; don't do it."""
    domx = FiniteDomain(1, "X")
    doms = FiniteDomain(1, "X*")
    H = HypothesisClass.from_patterns(domx, [(0,)])
    Phi = HypothesisClass.from_patterns(doms, [(0,), (1,)])
    S = TripleSample((Triple(0, 0, 1),))  # h errs; flagging changes nothing
    res = erm_privileged(H, Phi, S)
    assert res.objective == 1.0
    assert res.n_ignored == 0
    assert res.n_unexplained == 1


def test_privileged_matches_oracle_random():
    rng = random.Random(2024)
    for trial in range(400):
        n_x = rng.randint(1, 4)
        n_xs = rng.randint(1, 4)
        H = rand_class(rng, n_x, rng.randint(1, 12), "X")
        Phi = rand_class(rng, n_xs, rng.randint(1, 12), "X*")
        S = rand_sample(rng, n_x, n_xs, rng.randint(0, 12))
        C = rng.choice([1, 2, 0.5, Fraction(3, 2)])
        res = erm_privileged(H, Phi, S, C)
        total, n_ig, i, j, _ = oracle_privileged(H, Phi, S, C)
        assert res.h == H[i] and res.phi == Phi[j]
        assert res.n_ignored == n_ig
        if S.m:
            assert res.objective == float(total / S.m)


def test_privileged_large_class_matches_oracle():
    rng = random.Random(55)
    H = rand_class(rng, 12, 120, "X")
    Phi = rand_class(rng, 12, 60, "X*")
    assert len(H) * len(Phi) > LARGE_PAIRS
    for _ in range(5):
        S = rand_sample(rng, 12, 12, 14)
        res = erm_privileged(H, Phi, S, C=2)
        total, n_ig, i, j, _ = oracle_privileged(H, Phi, S, 2)
        assert (res.h, res.phi) == (H[i], Phi[j])
        assert res.objective == float(total / S.m)


def test_privileged_objective_identity_at_unit_cost():
    rng = random.Random(31)
    for _ in range(100):
        H = rand_class(rng, 3, 6, "X")
        Phi = rand_class(rng, 3, 6, "X*")
        S = rand_sample(rng, 3, 3, rng.randint(1, 16))
        res = erm_privileged(H, Phi, S, C=1)
        # the objective counts flagged-or-errored examples
        assert res.objective * S.m == pytest.approx(
            res.n_ignored + res.n_unexplained
        )
        assert res.objective == pytest.approx(
            res.ignored_weight + res.unexplained_error, abs=1e-15
        )


def test_lemma4_decomposition_never_beats_standard():
    rng = random.Random(77)
    for _ in range(200):
        n_x, n_xs = rng.randint(1, 4), rng.randint(1, 4)
        H = rand_class(rng, n_x, rng.randint(1, 10), "X")
        Phi = rand_class(rng, n_xs, rng.randint(1, 10), "X*")
        S = rand_sample(rng, n_x, n_xs, rng.randint(1, 18))
        std = erm_standard(H, S)
        pr = erm_privileged(H, Phi, S, C=1)
        assert std.n_errors <= pr.n_ignored + pr.n_unexplained


def test_privileged_invariant_to_sample_order():
    rng = random.Random(13)
    H = rand_class(rng, 3, 8, "X")
    Phi = rand_class(rng, 3, 8, "X*")
    base = rand_sample(rng, 3, 3, 12)
    ref = erm_privileged(H, Phi, base, C=2)
    triples = list(base.triples)
    for _ in range(5):
        rng.shuffle(triples)
        res = erm_privileged(H, Phi, TripleSample(tuple(triples)), C=2)
        assert (res.h, res.phi, res.objective) == (ref.h, ref.phi, ref.objective)


def test_composite_loss_agrees_with_objective():
    """Summing the scalar loss over the sample reproduces the solver objective."""
    rng = random.Random(3)
    H = rand_class(rng, 3, 5, "X")
    Phi = rand_class(rng, 3, 5, "X*")
    S = rand_sample(rng, 3, 3, 10)
    for C in (1, 2):
        res = erm_privileged(H, Phi, S, C)
        total = sum(
            composite_loss(
                zero_one_loss(res.h.bits[t.x], t.y),
                ignoring_loss(res.phi.bits[t.xstar], t.y),
                C,
            )
            for t in S
        )
        assert res.objective == pytest.approx(total / S.m, abs=1e-12)
