"""The benchmark's oracles, and the checks built on them, catch planted wrong answers.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_oracles.py
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from priverm import bounds, erm  # noqa: E402

# 3 points; shatters {0, 1} and no 3-set: VC 2, lex-first witness (0, 1)
VC2 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]


def report(vc, witness, exact=True):
    return SimpleNamespace(vc=vc, witness=tuple(witness), exact=exact)


def test_vc_oracle_known_answers():
    full3 = [tuple((v >> i) & 1 for i in range(3)) for v in range(8)]
    assert oracles.vc_oracle(full3, 3) == (3, (0, 1, 2))
    assert oracles.vc_oracle(VC2, 3) == (2, (0, 1))
    assert oracles.vc_oracle([(0, 1, 1)], 3) == (0, ())
    assert oracles.shattered_counts(full3, 3) == [1, 3, 3, 1]
    # {0,1} shattered; {0,2} and {1,2} each miss a pattern
    assert oracles.shattered_counts(VC2, 3) == [1, 3, 1]


def test_vc_checks_catch_a_planted_witness_and_dimension():
    cls = workloads.make_class(VC2, 3, "X")
    t = workloads.Tally()
    workloads.check_against_oracle(t, cls, report(2, (0, 1)), "right")
    workloads.check_report(t, cls, report(2, (0, 1)), "right")
    assert t.problems == []

    workloads.check_report(t, cls, report(2, (0, 2)), "one point swapped")
    assert len(t.problems) == 1
    workloads.check_against_oracle(t, cls, report(1, (0,)), "vc off by one")
    assert len(t.problems) == 2
    workloads.check_report(t, cls, report(2, (1, 0)), "unsorted")
    assert len(t.problems) == 3


def test_vc_output_check_catches_planted_levels():
    cls = workloads.make_class(VC2, 3, "X")
    good = {"vc": 2, "exact": True, "witness": [0, 1], "levels": [1, 3, 1]}
    t = workloads.Tally()
    workloads.check_vc_output(t, good, cls, (2, (0, 1)))
    assert t.problems == []
    workloads.check_vc_output(t, {**good, "levels": [1, 4, 1]}, cls, (2, (0, 1)))
    assert any("C(n, k)" in p for p in t.problems)


def test_erm_oracle_known_answer_and_tie_order():
    H = [(0, 0), (1, 1)]
    Phi = [(0, 0), (1, 0)]
    sample = [(0, 0, 1), (1, 1, 1), (0, 0, 1)]
    assert oracles.erm_privileged_oracle(H, Phi, sample, Fraction(1)) == (0, 0, 1, 0, 0)
    assert oracles.erm_standard_oracle(H, sample) == (0, 1)
    # objective ties at 1: the pair flagging fewer triples wins
    one = [(0,)]
    flags = [(0,), (1,)]
    assert oracles.erm_privileged_oracle(one, flags, [(0, 0, 1)], Fraction(1)) == (1, 0, 0, 0, 1)
    # with C = 2 a flag costs 1/2, so flagging wins
    assert oracles.erm_privileged_oracle(one, flags, [(0, 0, 1)], Fraction(2)) == (Fraction(1, 2), 1, 0, 1, 0)


def test_erm_oracle_catches_a_planted_objective():
    rng = random.Random(5)
    for _ in range(20):
        H = [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(4)]
        Phi = [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(4)]
        sample = [(rng.randrange(3), rng.randrange(3), rng.randrange(2)) for _ in range(12)]
        obj, n_ig, i, j, n_u = oracles.erm_privileged_oracle(H, Phi, sample, Fraction(1))
        assert obj == n_ig + n_u
        planted = (obj + 1, n_ig, i, j, n_u)
        assert planted != (obj, n_ig, i, j, n_u)
        # the oracle agrees with the program on the same inputs
        Hc = workloads.make_class(sorted(set(H)), 3, "X")
        Pc = workloads.make_class(sorted(set(Phi)), 3, "X*")
        S = workloads.core.TripleSample(tuple(workloads.core.Triple(*s) for s in sample))
        got = erm.erm_privileged(Hc, Pc, S, 1)
        want = oracles.erm_privileged_oracle(workloads.bits(Hc), workloads.bits(Pc), sample, Fraction(1))
        assert (got.h.bits, got.phi.bits) == (Hc[want[2]].bits, Pc[want[3]].bits)
        assert (got.n_ignored, got.n_unexplained) == (want[1], want[4])


def test_closed_forms_and_a_planted_bound():
    assert math.isclose(oracles.r_fast(1, 100, 0.05), 0.544490706734, rel_tol=1e-11)
    lo, hi = oracles.d_a_range(2, 2)
    assert lo == 2 and math.isclose(hi, 5 * 4 * (2 + math.log2(math.e)), rel_tol=1e-12)
    inputs = bounds.BoundInputs(m=200, delta=0.05, d=1, dstar=1, d_a=3,
                                eps_erm=0.1, eps_ig=0.05, eps_u=0.05)
    b_erm = oracles.bound_erm(0.1, 1, 200, 0.05)
    b_pr = oracles.bound_pr(0.05, 0.05, 1, 3, 200, 0.05)
    assert math.isclose(bounds.bound_erm(inputs), b_erm, rel_tol=1e-12)
    assert math.isclose(bounds.bound_pr(inputs), b_pr, rel_tol=1e-12)
    # a bound built on log2, or on d + 1, is caught
    planted = 0.1 + math.sqrt(0.1 * (8 * math.log2(201) + 4 * math.log2(80)) / 200)
    assert not math.isclose(planted, b_erm, rel_tol=1e-12)
    assert not math.isclose(oracles.bound_erm(0.1, 2, 200, 0.05), b_erm, rel_tol=1e-12)


def test_count_of_rejects_a_rate_that_is_not_a_count():
    assert workloads.count_of(7 / 200, 200) == 7
    assert workloads.count_of(7 / 200 + 1e-9, 200) == -1
