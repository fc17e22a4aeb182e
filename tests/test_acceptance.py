"""Acceptance suite: one test per advertised guarantee, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one [PASS] line per
criterion with the measured numbers.  Every check here is an end-to-end run
of the public API; nothing is mocked and no tolerance is looser than the
number printed next to it.
"""

import math
import random
import time

from priverm import (
    BoundInputs,
    FiniteDistribution,
    FiniteDomain,
    HypothesisClass,
    Triple,
    alpha_threshold,
    bound_erm,
    bound_pr,
    construct_lemma1_tight,
    construct_lemma2_witness,
    construct_theorem1,
    construct_theorem5_family,
    d_a_interval,
    erm_privileged,
    erm_standard,
    necessary_condition,
    phi_prime_subclass,
    sufficient_condition,
    vc_dimension,
)
from priverm.bounds import AUX_UPPER_FACTOR
from priverm.constructions import full_class
from priverm.core import (
    class_from_json,
    distribution_from_json,
    load_json,
    product_index,
)
from priverm.simulate import (
    ExperimentConfig,
    persist_run,
    run_comparison,
    run_theorem5_experiment,
)
from priverm.vc import build_aux_class, build_f_class, is_shattered, k_fold_union, union_class

from conftest import LARGE_PAIRS, oracle_privileged, rand_class, rand_sample


def _passline(n: int, detail: str) -> None:
    print(f"[PASS] criterion {n}: {detail}")


def rand_class_with_vc(rng: random.Random, want: int, label: str) -> HypothesisClass:
    """Rejection-sample a small-domain class whose exact VC is ``want``."""
    while True:
        n = rng.randint(want + 1, 6)
        k = rng.randint(2 ** want, min(20, 2 ** n))
        pats = {tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k)}
        cls = HypothesisClass.from_patterns(FiniteDomain(n, label), sorted(pats))
        rep = vc_dimension(cls)
        if rep.vc == want and rep.exact:
            return cls


# --- criterion 1: triple-product construction, measured VC versus the additive guess


def test_criterion_1_product_construction():
    t0 = time.perf_counter()
    H1, Phi1 = construct_theorem1(1)
    assert vc_dimension(H1).vc == 1
    assert vc_dimension(Phi1).vc == 1
    f1 = vc_dimension(build_f_class(H1, Phi1))
    assert f1.vc == 3 and f1.exact
    t1 = time.perf_counter() - t0
    assert t1 < 1.0, f"d=1 took {t1:.2f}s, limit 1s"
    print(f"additive prediction d+d* = 2; measured VC(F) = {f1.vc}; REFUTED")

    t0 = time.perf_counter()
    H2, Phi2 = construct_theorem1(2)
    assert vc_dimension(H2).vc == 2
    assert vc_dimension(Phi2).vc == 2
    f2 = vc_dimension(build_f_class(H2, Phi2))
    assert f2.vc == 6 and f2.exact
    t2 = time.perf_counter() - t0
    assert t2 < 300.0, f"d=2 took {t2:.2f}s, limit 5min"
    print(f"additive prediction d+d* = 4; measured VC(F) = {f2.vc}; REFUTED")

    t0 = time.perf_counter()
    H3, Phi3 = construct_theorem1(3)
    assert vc_dimension(H3).vc == 3
    assert vc_dimension(Phi3).vc == 3
    F3 = build_f_class(H3, Phi3)
    diag = [product_index(i, i, 0, Phi3.domain.size) for i in range(9)]
    assert is_shattered(F3, diag), "9-point diagonal witness must shatter"
    t3 = time.perf_counter() - t0
    assert t3 < 30.0, f"d=3 took {t3:.2f}s, limit 30s"
    print("additive prediction d+d* = 6; witnessed VC(F) >= 9; REFUTED")

    _passline(1, f"VC(F) = 3/6/>=9 for d=1/2/3 "
                 f"({t1:.2f}s, {t2:.2f}s, {t3:.2f}s)")


# --- criterion 2: union classes -----------------------------------------------


def test_criterion_2_union_bound_and_tightness():
    for d, dstar in ((1, 1), (1, 2), (2, 2), (2, 3)):
        H, J = construct_lemma1_tight(d, dstar)
        ru = vc_dimension(union_class(H, J))
        assert ru.exact
        assert ru.vc == d + dstar + 1, (d, dstar, ru.vc)

    rng = random.Random(20260817)
    violations = 0
    for _ in range(1000):
        n = rng.randint(1, 10)
        a = rand_class(rng, n, rng.randint(1, 16))
        b = rand_class(rng, n, rng.randint(1, 16))
        va = vc_dimension(a).vc
        vb = vc_dimension(b).vc
        vu = vc_dimension(union_class(a, b)).vc
        if vu > va + vb + 1:
            violations += 1
    assert violations == 0
    _passline(2, "tight at d+d*+1 on 4 constructions; "
                 "0/1000 random pairs exceed VC(a)+VC(b)+1")


# --- criterion 3: k-fold unions ----------------------------------------------


def test_criterion_3_k_fold_union_bound():
    rng = random.Random(31)
    violations = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        base = rand_class(rng, n, rng.randint(2, 10))
        k = rng.choice((2, 3))
        vr = vc_dimension(base).vc
        vu = vc_dimension(k_fold_union(base, k)).vc
        if vu > vr * 2 * k * math.log2(2 * math.e * k):
            violations += 1
    assert violations == 0
    _passline(3, "0/200 random systems exceed VC(r)*2k*log2(2ek), k in {2,3}")


# --- criterion 4: auxiliary-class dimension sandwich ----------------------------


def test_criterion_4_aux_dimension_sandwich():
    def check(H, Phi, d, dstar):
        aux = build_aux_class(H, Phi)
        rep = vc_dimension(aux)
        assert rep.exact, "sandwich needs the exact dimension"
        lower, upper = d_a_interval(d, dstar)
        assert lower <= rep.vc <= upper, (d, dstar, rep.vc, lower, upper)
        witness = construct_lemma2_witness(H, Phi)
        assert len(witness) == d + dstar - 2
        return rep.vc

    # constructed instances on small domains: all four dimension combos
    for d in (2, 3):
        for dstar in (2, 3):
            check(full_class(d, "X"), full_class(dstar, "X*"), d, dstar)

    # the flagship product construction, where it fits the node budget
    constructed = []
    for d, dstar in ((2, 2), (2, 3), (3, 2)):
        H, _ = construct_theorem1(d)
        _, Phi = construct_theorem1(dstar)
        constructed.append((d, dstar, check(H, Phi, d, dstar)))

    rng = random.Random(404)
    for _ in range(500):
        d = rng.choice((2, 3))
        dstar = rng.choice((2, 3))
        H = rand_class_with_vc(rng, d, "X")
        Phi = rand_class_with_vc(rng, dstar, "X*")
        check(H, Phi, d, dstar)

    _passline(4, f"d_a in [d+d*-2, {AUX_UPPER_FACTOR:.4f}*(d+d*+1)] on "
                 f"7 constructed + 500 random instances; "
                 f"product-construction d_a = {constructed}")


# --- criterion 5: solver versus oracle -------------------------------------------


def test_criterion_5_solver_equals_oracle():
    rng = random.Random(55)
    for trial in range(10_000):
        n_x = rng.randint(1, 4)
        n_xs = rng.randint(1, 4)
        H = rand_class(rng, n_x, rng.randint(1, 8))
        Phi = rand_class(rng, n_xs, rng.randint(1, 8), label="X*")
        m = rng.randint(0, 20)
        s = rand_sample(rng, n_x, n_xs, m)
        C = rng.choice((1, 2))
        res = erm_privileged(H, Phi, s, C)
        want = oracle_privileged(H, Phi, s, C)
        assert res.h is H[want[2]] and res.phi is Phi[want[3]], trial
        if m:
            assert res.objective == float(want[0] / m)
        std = erm_standard(H, s)
        assert std.n_errors <= res.n_ignored + res.n_unexplained, trial

    # a handful of large instances
    rng = random.Random(56)
    big_hits = 0
    for _ in range(5):
        H = rand_class(rng, 12, 80)
        Phi = rand_class(rng, 12, 60, label="X*")
        if len(H) * len(Phi) <= LARGE_PAIRS:
            continue
        big_hits += 1
        s = rand_sample(rng, 12, 12, 20)
        res = erm_privileged(H, Phi, s, 2)
        want = oracle_privileged(H, Phi, s, 2)
        assert res.h is H[want[2]] and res.phi is Phi[want[3]]
    assert big_hits > 0

    _passline(5, "solver == oracle on 10^4 instances (C in {1,2}); "
                 "empirical decomposition inequality never violated")


# --- criterion 6: Monte Carlo coverage ----------------------------------------------


def test_criterion_6_bound_coverage():
    t0 = time.perf_counter()
    H, Phi = construct_theorem1(1)
    distributions = (
        FiniteDistribution((
            (Triple(0, 0, 0), 0.5),
            (Triple(1, 1, 0), 0.3),
            (Triple(2, 2, 1), 0.2),
        )),
        FiniteDistribution((
            (Triple(0, 0, 0), 0.25),
            (Triple(0, 0, 1), 0.15),
            (Triple(1, 1, 1), 0.20),
            (Triple(2, 2, 0), 0.25),
            (Triple(2, 1, 1), 0.15),
        )),
        FiniteDistribution((
            (Triple(0, 2, 1), 0.3),
            (Triple(1, 0, 0), 0.3),
            (Triple(2, 1, 0), 0.2),
            (Triple(2, 2, 1), 0.2),
        )),
    )
    trials = 2000
    se95 = 3 * math.sqrt(0.95 * 0.05 / trials)
    se90 = 3 * math.sqrt(0.90 * 0.10 / trials)
    coverages = []
    for i, dist in enumerate(distributions):
        config = ExperimentConfig(
            distribution=dist, H=H, Phi=Phi, m=200, trials=trials,
            delta=0.05, seed=600 + i,
        )
        records, summary = run_comparison(config)
        assert summary["effective_trials"] == trials
        assert summary["coverage_erm"] >= 0.95 - se95, summary["coverage_erm"]
        assert summary["coverage_pr"] >= 0.90 - se90, summary["coverage_pr"]
        coverages.append((summary["coverage_erm"], summary["coverage_pr"]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"{elapsed:.0f}s, limit 10min"
    _passline(6, f"coverage over 3x{trials} trials: {coverages} "
                 f"(floors {0.95 - se95:.4f}/{0.90 - se90:.4f}, {elapsed:.0f}s)")


# --- criterion 7: implication sweeps ---------------------------------------------------


def test_criterion_7_condition_checkers():
    rng = random.Random(77)
    held = 0
    triggered = 0
    for _ in range(100_000):
        m = rng.randint(10, 100_000)
        delta = rng.uniform(0.001, 0.2)
        d = rng.randint(1, 60)
        dstar = rng.randint(1, d)
        d_a = rng.randint(max(d + dstar - 2, 1), d + dstar + 20)
        eps_ig = rng.uniform(0.0, 0.5)
        eps_u = rng.uniform(0.0, 0.5)

        # (a) premise-exact inputs: sufficiency must imply the bound ordering
        exact = BoundInputs(m=m, delta=delta, d=d, dstar=dstar, d_a=d_a,
                            eps_erm=eps_ig + eps_u, eps_ig=eps_ig, eps_u=eps_u)
        if sufficient_condition(exact).holds:
            held += 1
            assert bound_pr(exact) <= bound_erm(exact) + 1e-9

        # (b) bound ordering plus the empirical decomposition constraint
        #     must land inside the exact square-root inequality
        slack = BoundInputs(m=m, delta=delta, d=d, dstar=dstar, d_a=d_a,
                            eps_erm=rng.uniform(0.0, eps_ig + eps_u),
                            eps_ig=eps_ig, eps_u=eps_u)
        nec = necessary_condition(slack)
        if nec.pr_leq_erm:
            triggered += 1
            assert nec.lemma5_holds

    assert held > 0 and triggered > 0
    root = alpha_threshold()
    assert 2.246 <= root <= 2.248
    assert abs(root ** 3 - 2 * root ** 2 - root + 1) <= 1e-8
    assert root < 2.25
    _passline(7, f"10^5 draws: sufficiency held {held}x, ordering triggered "
                 f"{triggered}x, zero violations; threshold root {root:.10f} < 2.25")


# --- criterion 8: hard-family deviation experiment -------------------------------------


def test_criterion_8_deviation_experiment():
    eps, delta, m, trials = 0.1, 0.005, 50, 10_000
    Phi = full_class(8, "X*")
    claims = {}
    for heavy in ((0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0)):
        family, _ = construct_theorem5_family(
            Phi, eps=eps, delta=delta, heavy_side=heavy
        )
        assert family.alpha == 8 * eps / (1 - 8 * delta)
        star_rate = family.true_flag_rate(family.phi_star)
        assert abs(star_rate - (1 - family.alpha) / 2) <= 1e-12
        prime = phi_prime_subclass(Phi, family.pairs)
        rep = run_theorem5_experiment(
            family, prime, m=m, trials=trials, seed=20260817
        )
        claims[heavy] = rep["freq_claim"]
        assert "worst-case" in rep["note"]

    worst = max(claims.values())
    assert worst > delta, claims
    # the per-member existential form of the event is far more frequent still
    family, _ = construct_theorem5_family(Phi, eps=eps, delta=delta)
    prime = phi_prime_subclass(Phi, family.pairs)
    rep = run_theorem5_experiment(family, prime, m=m, trials=trials, seed=20260817)
    assert rep["freq_existential"] > 10 * delta
    _passline(8, f"deviation > eps in {worst:.4f} > delta = {delta} of "
                 f"{trials} trials (m = {m}, far below the worst-case "
                 f"sample size); existential rate {rep['freq_existential']:.3f}")


# --- criterion 9: byte-level reproducibility ----------------------------------------


def test_criterion_9_manifest_determinism(tmp_path):
    H, Phi = construct_theorem1(1)
    dist = FiniteDistribution((
        (Triple(0, 0, 0), 0.4),
        (Triple(1, 1, 1), 0.35),
        (Triple(2, 2, 0), 0.25),
    ))
    first = tmp_path / "first"
    config = ExperimentConfig(
        distribution=dist, H=H, Phi=Phi, m=40, trials=50, delta=0.05,
        seed=909,
    )
    records, summary = run_comparison(config)
    persist_run(records, summary, config, str(first))

    manifest = load_json(str(first / "manifest.json"))
    echo = load_json(str(first / manifest["files"]["config"]))
    second = tmp_path / "second"
    replay = ExperimentConfig(
        distribution=distribution_from_json(echo["distribution"]),
        H=class_from_json(echo["h_class"], label="X"),
        Phi=class_from_json(echo["phi_class"], label="X*"),
        m=echo["m"], trials=echo["trials"], delta=echo["delta"],
        seed=manifest["seed"], C=echo["c"],
    )
    records2, summary2 = run_comparison(replay)
    persist_run(records2, summary2, replay, str(second))

    a = (first / "trials.csv").read_bytes()
    b = (second / "trials.csv").read_bytes()
    assert a == b
    _passline(9, f"trials.csv byte-identical on a replay from the manifest "
                 f"({len(a)} bytes, 50 trials)")
