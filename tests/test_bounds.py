"""Rate functions, bounds, auxiliary-dimension interval, and both conditions."""

import math
import random

import pytest

from priverm import (
    BoundInputs,
    alpha_threshold,
    bound_erm,
    bound_pr,
    d_a_interval,
    necessary_condition,
    r_fast,
    r_slow,
    sufficient_condition,
)
from priverm import bounds
from priverm.bounds import AUX_UPPER_FACTOR
from priverm.core import ExperimentConfig, InputError, check_sizes

DELTA4 = 4 * math.exp(-4)  # makes log(4/delta) exactly 4


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf])
def test_every_delta_check_is_the_one_rule(delta):
    # BoundInputs, r_fast and ExperimentConfig reject the same deltas with one
    # message; ExperimentConfig checks delta before it reads the classes
    checks = [
        lambda: BoundInputs(m=10, delta=delta, d=1, dstar=1, d_a=1),
        lambda: r_fast(1, 10, delta),
        lambda: ExperimentConfig(
            distribution=None, H=None, Phi=None, m=10, trials=1, delta=delta, seed=0
        ),
    ]
    for check in checks:
        with pytest.raises(InputError) as exc:
            check()
        assert str(exc.value) == f"delta must be in (0, 1), got {delta}"


@pytest.mark.parametrize("m", [0, -3])
def test_every_m_check_is_the_one_rule(m):
    # BoundInputs, r_fast, check_sizes and ExperimentConfig reject the same m with
    # one message
    checks = [
        lambda: BoundInputs(m=m, delta=0.05, d=1, dstar=1, d_a=1),
        lambda: r_fast(1, m, 0.05),
        lambda: check_sizes(m, 1),
        lambda: ExperimentConfig(
            distribution=None, H=None, Phi=None, m=m, trials=1, delta=0.05, seed=0
        ),
    ]
    for check in checks:
        with pytest.raises(InputError) as exc:
            check()
        assert str(exc.value) == f"m must be >= 1, got {m}"


@pytest.mark.parametrize("field", ["m", "d"])
def test_every_float_overflow_check_is_the_one_rule(field):
    # an integer too large for a float is named as that by BoundInputs, r_fast
    # and r_slow alike, never raised as an OverflowError
    m, d = (10**400, 1) if field == "m" else (10, 10**400)
    checks = [
        lambda: BoundInputs(m=m, delta=0.05, d=d, dstar=1, d_a=1),
        lambda: r_fast(d, m, 0.05),
        lambda: r_slow(0.5, d, m, 0.05),
    ]
    for check in checks:
        with pytest.raises(InputError) as exc:
            check()
        assert str(exc.value) == f"{field} is too large for a float"


def make_inputs(m, delta, d, dstar, d_a, eps_ig=0.0, eps_u=0.0):
    """Inputs whose decomposition premise holds exactly in floats."""
    return BoundInputs(
        m=m, delta=delta, d=d, dstar=dstar, d_a=d_a,
        eps_erm=eps_ig + eps_u, eps_ig=eps_ig, eps_u=eps_u,
    )


# --- rate functions ------------------------------------------------------------


def test_r_fast_cancellation_point():
    # log(4/delta) = 4 kills the d term when d = 0
    for m in (1, 25, 400):
        assert r_fast(0, m, DELTA4) == pytest.approx(16 / m, rel=1e-12)


def test_r_fast_reference_value():
    got = r_fast(2, 99, DELTA4)
    want = (16 * math.log(100) + 16) / 99
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.9058860906647421, rel=1e-13)


def test_r_fast_validation():
    with pytest.raises(ValueError):
        r_fast(1, 0, 0.05)
    with pytest.raises(ValueError):
        r_fast(1, 10, 0.0)
    with pytest.raises(ValueError):
        r_fast(1, 10, 1.0)
    with pytest.raises(ValueError):
        r_fast(-1, 10, 0.05)


def test_r_fast_monotonicity():
    for d in range(5):
        assert r_fast(d + 1, 50, 0.05) > r_fast(d, 50, 0.05)
    for m in range(2, 40):
        assert r_fast(3, m + 1, 0.05) < r_fast(3, m, 0.05)
    assert r_fast(3, 50, 0.01) > r_fast(3, 50, 0.05)


def test_r_slow_values():
    assert r_slow(0.0, 3, 50, 0.05) == 0.0
    rf = r_fast(3, 50, 0.05)
    assert r_slow(1.0, 3, 50, 0.05) == pytest.approx(math.sqrt(rf), rel=1e-15)
    # r_fast(0, 25, DELTA4) = 0.64, so the slow rate at x = 0.25 is 0.4
    assert r_slow(0.25, 0, 25, DELTA4) == pytest.approx(0.4, rel=1e-12)
    with pytest.raises(ValueError):
        r_slow(1.5, 3, 50, 0.05)
    with pytest.raises(ValueError):
        r_slow(-0.1, 3, 50, 0.05)


# --- bounds ---------------------------------------------------------------------


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(m=0, delta=0.05, d=1, dstar=1, d_a=1)
    with pytest.raises(ValueError):
        BoundInputs(m=10, delta=0.0, d=1, dstar=1, d_a=1)
    with pytest.raises(ValueError):
        BoundInputs(m=10, delta=0.05, d=-1, dstar=1, d_a=1)
    with pytest.raises(ValueError):
        BoundInputs(m=10, delta=0.05, d=1, dstar=1, d_a=1, eps_erm=1.5)


def test_bound_erm_composition():
    inputs = BoundInputs(m=99, delta=DELTA4, d=2, dstar=2, d_a=2, eps_erm=0.1)
    rf = r_fast(2, 99, DELTA4)
    assert bound_erm(inputs) == pytest.approx(0.1 + math.sqrt(0.1 * rf) + rf, rel=1e-15)
    assert bound_erm(inputs) == pytest.approx(1.3068655070148876, rel=1e-13)
    assert bound_erm(inputs) > 1.0  # vacuous at this m, reported as-is


def test_bound_erm_realizable_collapses_to_fast_rate():
    inputs = BoundInputs(m=500, delta=0.05, d=3, dstar=1, d_a=2, eps_erm=0.0)
    assert bound_erm(inputs) == r_fast(3, 500, 0.05)


def test_bound_pr_zero_errors():
    inputs = make_inputs(200, 0.05, 3, 2, 3)
    assert bound_pr(inputs) == pytest.approx(
        r_fast(2, 200, 0.05) + r_fast(3, 200, 0.05), rel=1e-15
    )


def test_bound_pr_useless_phi_costs_one_fast_rate():
    """dstar = d_a = d with everything unexplained: exactly r_fast(d) worse."""
    for eps in (0.0, 0.05, 0.3):
        inputs = BoundInputs(
            m=400, delta=0.05, d=4, dstar=4, d_a=4,
            eps_erm=eps, eps_ig=0.0, eps_u=eps,
        )
        diff = bound_pr(inputs) - bound_erm(inputs)
        assert diff == pytest.approx(r_fast(4, 400, 0.05), rel=1e-12)


def test_d_a_interval():
    lower, upper = d_a_interval(2, 2)
    assert lower == 2.0
    assert upper == pytest.approx(AUX_UPPER_FACTOR * 5, rel=1e-15)
    assert upper == pytest.approx(68.8539008, abs=1e-6)
    assert d_a_interval(1, 1)[0] == 0.0
    assert d_a_interval(3, 2)[0] == 3.0
    assert d_a_interval(1, 7)[0] == 0.0  # needs both dimensions above 1
    with pytest.raises(ValueError):
        d_a_interval(-1, 2)


def test_aux_upper_factor_value():
    assert AUX_UPPER_FACTOR == pytest.approx(4 * math.log2(4 * math.e), rel=1e-15)
    assert AUX_UPPER_FACTOR == pytest.approx(13.7707801636, abs=1e-9)


# --- sufficient condition --------------------------------------------------------


def test_sufficient_requires_decomposition_premise():
    bad = BoundInputs(m=100, delta=0.05, d=3, dstar=1, d_a=2,
                      eps_erm=0.5, eps_ig=0.1, eps_u=0.1)
    with pytest.raises(ValueError):
        sufficient_condition(bad)


def test_sufficient_never_holds_when_realizable():
    # rhs < 0 whenever the aux dimension obeys its lower bound
    for d, dstar, d_a in ((3, 2, 3), (5, 3, 6), (2, 2, 2)):
        inputs = make_inputs(1000, 0.05, d, dstar, d_a)
        rep = sufficient_condition(inputs)
        assert not rep.holds
        assert rep.lhs == 0.0
        assert rep.rhs < 0.0
        assert rep.margin < 0.0


def test_sufficient_holds_on_a_favorable_instance():
    inputs = make_inputs(10_000, 0.05, 40, 1, 39, eps_ig=0.01, eps_u=0.0)
    rep = sufficient_condition(inputs)
    assert rep.holds
    assert bound_pr(inputs) <= bound_erm(inputs)
    assert rep.to_json() == {"holds": True, "lhs": rep.lhs, "rhs": rep.rhs}


def test_sufficient_implies_bound_ordering():
    """Random premise-exact sweep: condition true forces b_pr <= b_erm."""
    rng = random.Random(42)
    held = 0
    for _ in range(3000):
        m = rng.randint(10, 100_000)
        delta = 10 ** rng.uniform(-4, -0.7)
        d = rng.randint(1, 60)
        dstar = rng.randint(1, 60)
        d_a = rng.randint(max(0, d + dstar - 2), 2 * (d + dstar) + 2)
        eps_ig = rng.uniform(0, 0.5)
        eps_u = rng.uniform(0, 0.5)
        inputs = make_inputs(m, delta, d, dstar, d_a, eps_ig, eps_u)
        rep = sufficient_condition(inputs)
        if rep.holds:
            held += 1
            assert bound_pr(inputs) <= bound_erm(inputs) + 1e-9
    assert held > 0  # the sweep must actually exercise the implication


# (m, delta, d, dstar, d_a, eps_erm, eps_ig, eps_u) -> lhs, rhs as float.hex
SUFFICIENT_PINS = [
    ((10, 0.05, 1, 1, 3, 0.1, 0.06, 0.04), "0x1.999999999999ap-3", "-0x1.5eb945c87e028p+1"),
    ((200, 0.05, 1, 1, 3, 0.25, 0.25, 0.0), "0x0.0p+0", "-0x1.b3a9a6a2bcd2fp-1"),
    ((99, 0.01, 2, 1, 3, 0.3, 0.1, 0.2), "0x1.c9f25c5bfedd9p-2", "-0x1.7ee4f06fd6446p-1"),
    ((5000, 0.1, 3, 2, 4, 0.0, 0.0, 0.0), "0x0.0p+0", "-0x1.7680b0f5f5a78p-3"),
    ((40, 0.5, 4, 4, 6, 0.5, 0.2, 0.3), "0x1.186f174f88472p-1", "-0x1.14707e0a4cc47p+1"),
    ((100000, 0.001, 60, 30, 88, 0.02, 0.015, 0.005), "0x1.21a1851ff630ap-4", "-0x1.3c464aa76e6d2p-3"),
    ((100000, 0.05, 40, 1, 2, 0.3, 0.25, 0.05), "0x1.c9f25c5bfedd9p-3", "0x1.59403ebe5af69p+1"),
    ((1000, 0.05, 20, 1, 1, 0.2, 0.19, 0.01), "0x1.999999999999ap-4", "0x1.3b9dac3e266a5p+2"),
]


@pytest.mark.parametrize(
    "args, lhs, rhs", SUFFICIENT_PINS, ids=[f"m{a[0]}-d{a[2]}" for a, _, _ in SUFFICIENT_PINS]
)
def test_sufficient_values_are_pinned_bitwise(args, lhs, rhs, monkeypatch):
    calls = []

    def counting_r_fast(d, m, delta):
        calls.append(d)
        return r_fast(d, m, delta)

    monkeypatch.setattr(bounds, "r_fast", counting_r_fast)
    rep = sufficient_condition(BoundInputs(*args))
    assert (rep.lhs.hex(), rep.rhs.hex()) == (lhs, rhs)
    assert rep.holds == (rep.lhs <= rep.rhs)
    assert sorted(calls) == sorted(args[2:5])  # one rate per dimension


# --- necessary condition ----------------------------------------------------------


def test_necessary_reports_exact_inequality_terms():
    inputs = BoundInputs(m=99, delta=DELTA4, d=3, dstar=2, d_a=3,
                         eps_erm=0.2, eps_ig=0.15, eps_u=0.05)
    rep = necessary_condition(inputs)
    a = 4.0 / (2 * math.log(100))
    assert rep.a_const == pytest.approx(a, rel=1e-14)
    assert rep.lemma5_lhs == pytest.approx(math.sqrt(0.05 * (3 + a)), rel=1e-14)
    assert rep.lemma5_rhs == pytest.approx(
        math.sqrt(0.2 * (3 + a)) - math.sqrt(0.15 * (2 + a)), rel=1e-14
    )
    assert rep.alpha == pytest.approx(2 / 3)
    assert rep.b_erm == bound_erm(inputs)
    assert rep.b_pr == bound_pr(inputs)
    assert rep.pr_leq_erm == (rep.b_pr <= rep.b_erm)
    assert set(rep.to_json()) == {
        "b_erm", "b_pr", "pr_leq_erm", "lemma5_lhs", "lemma5_rhs",
        "lemma5_holds", "a_const", "alpha", "alpha_root",
    }


def test_necessary_rejects_zero_d():
    inputs = BoundInputs(m=50, delta=0.05, d=0, dstar=1, d_a=1)
    with pytest.raises(ValueError):
        necessary_condition(inputs)


def test_slow_rate_change_of_variable():
    """R_s(1, x) = sqrt(8 log(m+1)/m) * sqrt(x + A): the substitution behind
    the necessary condition's (dimension + A) form."""
    rng = random.Random(9)
    for _ in range(200):
        m = rng.randint(2, 10_000)
        delta = rng.uniform(1e-4, 0.3)
        d = rng.randint(0, 50)
        a = math.log(4 / delta) / (2 * math.log(m + 1))
        scale = math.sqrt(8 * math.log(m + 1) / m)
        assert r_slow(1.0, d, m, delta) == pytest.approx(
            scale * math.sqrt(d + a), rel=1e-12
        )


def test_bound_ordering_implies_lemma5():
    """b_pr <= b_erm with solver-consistent inputs forces the exact inequality."""
    rng = random.Random(314)
    triggered = 0
    for _ in range(3000):
        m = rng.randint(10, 100_000)
        delta = 10 ** rng.uniform(-4, -0.7)
        d = rng.randint(1, 60)
        dstar = rng.randint(1, 60)
        d_a = rng.randint(max(0, d + dstar - 2), 2 * (d + dstar) + 2)
        eps_ig = rng.uniform(0, 0.5)
        eps_u = rng.uniform(0, 0.5)
        # anything at most the sum satisfies the solver's guarantee
        eps_erm = rng.uniform(0, eps_ig + eps_u)
        inputs = BoundInputs(m=m, delta=delta, d=d, dstar=dstar, d_a=d_a,
                             eps_erm=eps_erm, eps_ig=eps_ig, eps_u=eps_u)
        rep = necessary_condition(inputs)
        if rep.pr_leq_erm:
            triggered += 1
            assert rep.lemma5_holds
    assert triggered > 0


# --- threshold root -----------------------------------------------------------------


def test_alpha_threshold_bracket_and_residual():
    root = alpha_threshold()
    assert 2.246 <= root <= 2.248
    assert abs(root**3 - 2 * root**2 - root + 1) <= 1e-8
    assert root < 2.25
    assert root == pytest.approx(2.2469796037174667, abs=1e-12)


def test_alpha_threshold_matches_unsquared_form():
    # the cubic came from squaring sqrt(1+a)(1 - 1/a) = 1
    a = alpha_threshold()
    assert math.sqrt(1 + a) * (1 - 1 / a) == pytest.approx(1.0, abs=1e-7)
