"""Seeded sampling, the comparison and deviation experiments, persistence."""

import csv
import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priverm import (
    FiniteDistribution,
    FiniteDomain,
    HypothesisClass,
    Triple,
    construct_theorem1,
    construct_theorem5_family,
    erm_privileged,
    exact_true_error,
    phi_prime_subclass,
    sample,
)
from priverm import simulate
from priverm.constructions import full_class
from priverm.core import DomainMismatchError, ignoring_loss, load_json, zero_one_loss
from priverm.simulate import (
    TRIALS_CSV_HEADER,
    ExperimentConfig,
    _trial_counts,
    mix_seed,
    persist_run,
    run_comparison,
    run_theorem5_experiment,
)

from conftest import rand_class


def three_point_distribution() -> FiniteDistribution:
    return FiniteDistribution((
        (Triple(0, 0, 0), 0.2),
        (Triple(1, 1, 1), 0.3),
        (Triple(2, 2, 1), 0.5),
    ))


def comparison_config(**overrides) -> ExperimentConfig:
    H, Phi = construct_theorem1(1)
    dist = FiniteDistribution((
        (Triple(0, 0, 0), 0.35),
        (Triple(1, 1, 1), 0.25),
        (Triple(2, 2, 0), 0.25),
        (Triple(2, 0, 1), 0.15),
    ))
    base = dict(distribution=dist, H=H, Phi=Phi, m=40, trials=60,
                delta=0.05, seed=91, C=1.0)
    base.update(overrides)
    return ExperimentConfig(**base)


# --- seed mixing and sampling ---------------------------------------------------


def test_mix_seed_is_stable():
    # pinned values: these can never change without breaking reproducibility
    assert mix_seed(0, 0) == 16294208416658607535
    assert mix_seed(0, 1) == 7960286522194355700
    assert mix_seed(1, 0) == 10451216379200822465
    assert mix_seed(12345, 678) == 9761773455441598619


def test_mix_seed_spreads_nearby_inputs():
    seen = {mix_seed(s, t) for s in range(8) for t in range(64)}
    assert len(seen) == 8 * 64


def test_sample_deterministic_per_seed():
    dist = three_point_distribution()
    a = sample(dist, 100, 12)
    b = sample(dist, 100, 12)
    c = sample(dist, 100, 13)
    assert a == b
    assert a != c


def test_sample_point_mass():
    dist = FiniteDistribution(((Triple(1, 2, 0), 1.0),))
    s = sample(dist, 50, 7)
    assert all(t == Triple(1, 2, 0) for t in s)


def test_sample_edge_cases():
    dist = three_point_distribution()
    assert sample(dist, 0, 1).m == 0
    with pytest.raises(ValueError):
        sample(dist, -1, 1)


TRAILING_ZERO = FiniteDistribution((
    (Triple(0, 0, 0), 0.5),
    (Triple(1, 1, 1), 0.5 - 1e-12),
    (Triple(2, 2, 0), 0.0),
))
TRAILING_DRAWS = np.array([
    0.0, 0.25, 0.75, TRAILING_ZERO.cumulative[-1], 1 - 1e-13, np.nextafter(1.0, 0.0)
])


def fixed_uniform_rows(seeds, m):
    """Every row gets the first m of TRAILING_DRAWS, whatever its seed."""
    return np.tile(TRAILING_DRAWS[:m], (len(seeds), 1))


def test_sample_never_draws_a_trailing_zero_mass_point(monkeypatch):
    """Draws past a total of 1 - 1e-12 go to the last point with mass."""
    dist = TRAILING_ZERO
    assert dist.cumulative[-1] < 1.0
    monkeypatch.setattr(simulate, "_uniform_rows", fixed_uniform_rows)
    s = sample(dist, len(TRAILING_DRAWS), 0)
    assert [t.x for t in s] == [0, 0, 1, 1, 1, 1]


def test_trial_counts_clamp_rows_on_both_sides_of_a_block(monkeypatch):
    """Blocks of two rows: rows 1 and 2 straddle the first boundary."""
    m = len(TRAILING_DRAWS)
    monkeypatch.setattr(simulate, "_uniform_rows", fixed_uniform_rows)
    monkeypatch.setattr(simulate, "_BLOCK_DRAWS", 2 * m)
    counts = _trial_counts(TRAILING_ZERO, m, 0, 5)
    assert counts.tolist() == [[2, 4, 0]] * 5


def reference_counts(dist: FiniteDistribution, m: int, seed: int, trials: int) -> np.ndarray:
    """Trial counts drawn one ``default_rng(mix_seed(seed, t))`` per trial."""
    cum = np.asarray(dist.cumulative)
    last = max(i for i, (_, p) in enumerate(dist.support) if p > 0)
    return np.stack([
        np.bincount(
            np.minimum(
                np.searchsorted(
                    cum, np.random.default_rng(mix_seed(seed, t)).random(m), side="right"
                ),
                last,
            ),
            minlength=len(cum),
        )
        for t in range(trials)
    ])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
@pytest.mark.parametrize(
    "dist",
    [three_point_distribution(), TRAILING_ZERO,
     FiniteDistribution(((Triple(1, 2, 0), 1.0),))],
    ids=["three_point", "trailing_zero", "point_mass"],
)
@pytest.mark.parametrize(
    "m, trials", [(200, 700), (50, 2000), (70_000, 3), (0, 4), (1, 5)]
)
def test_trial_counts_match_one_default_rng_per_trial(dist, m, trials, seed):
    """Every row is the trial's own stream, also across blocks of 2**16 draws."""
    got = _trial_counts(dist, m, seed, trials)
    want = reference_counts(dist, m, seed, trials)
    assert got.shape == (trials, len(dist.support))
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sample_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError):
        sample(three_point_distribution(), 5, seed)


EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
DRAW_LENGTHS = (0, 1, 7, 200)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", DRAW_LENGTHS)
def test_uniform_rows_equal_default_rng_at_edge_seeds(m):
    rows = simulate._uniform_rows(EDGE_SEEDS, m)
    assert rows.shape == (len(EDGE_SEEDS), m)
    for s, row in zip(EDGE_SEEDS, rows):
        assert np.array_equal(row, np.random.default_rng(s).random(m))


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
    st.sampled_from(DRAW_LENGTHS),
)
def test_uniform_rows_equal_default_rng(seeds, m):
    rows = simulate._uniform_rows(seeds, m)
    for s, row in zip(seeds, rows, strict=True):
        assert np.array_equal(row, np.random.default_rng(s).random(m))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_sample_draws_default_rng_stream(seed):
    dist = three_point_distribution()
    u = np.random.default_rng(seed).random(50)
    want = [dist.support[i][0] for i in np.searchsorted(dist.cumulative, u, side="right")]
    assert list(sample(dist, 50, seed)) == want


def test_sample_frequencies_match_support():
    dist = three_point_distribution()
    n = 1_000_000
    s = sample(dist, n, 321)
    counts = {}
    for t in s:
        counts[t] = counts.get(t, 0) + 1
    for t, p in dist.support:
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts.get(t, 0) / n - p) <= 3 * se


# --- comparison experiment ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        comparison_config(trials=0)
    with pytest.raises(ValueError):
        comparison_config(threads=0)
    with pytest.raises(ValueError):
        comparison_config(m=-1)


def test_comparison_rejects_incompatible_support():
    bad = FiniteDistribution(((Triple(17, 0, 0), 1.0),))
    with pytest.raises(DomainMismatchError):
        run_comparison(comparison_config(distribution=bad))


def test_comparison_records_and_summary():
    cfg = comparison_config()
    records, summary = run_comparison(cfg)
    assert len(records) == cfg.trials
    assert summary["effective_trials"] == cfg.trials
    assert summary["failed_trials"] == []
    assert (summary["d"], summary["dstar"], summary["d_a"]) == (1, 1, 3)
    for r in records:
        assert r.eps_erm <= r.eps_ig + r.eps_u + 1e-12
        assert r.covered_erm == (r.true_err_erm <= r.b_erm)
        assert r.covered_pr == (r.true_err_pr <= r.b_pr)
        assert r.pr_leq_erm == (r.b_pr <= r.b_erm)
    assert summary["coverage_erm"] == pytest.approx(
        sum(r.covered_erm for r in records) / len(records)
    )
    assert summary["mean_eps_u"] == pytest.approx(
        sum(r.eps_u for r in records) / len(records)
    )


def test_comparison_trivial_phi_gives_equal_true_errors():
    H, _ = construct_theorem1(1)
    zeros = HypothesisClass.from_patterns(FiniteDomain(3, "X*"), [(0, 0, 0)])
    cfg = comparison_config(Phi=zeros, trials=30)
    records, _ = run_comparison(cfg)
    for r in records:
        assert r.eps_ig == 0.0
        assert r.true_err_erm == r.true_err_pr


def test_comparison_thread_count_does_not_change_records():
    base, _ = run_comparison(comparison_config(threads=1))
    four, _ = run_comparison(comparison_config(threads=4))
    assert base == four


def test_privileged_error_decomposition_per_trial():
    """err(h) can't exceed flag mass plus unflagged-error mass."""
    cfg = comparison_config(trials=20)
    for t in range(cfg.trials):
        s = sample(cfg.distribution, cfg.m, mix_seed(cfg.seed, t))
        pr = erm_privileged(cfg.H, cfg.Phi, s, cfg.C)
        flag_mass = sum(
            p for tri, p in cfg.distribution.support if pr.phi.bits[tri.xstar]
        )
        unflagged_err = sum(
            p for tri, p in cfg.distribution.support
            if pr.h.bits[tri.x] != tri.y and not pr.phi.bits[tri.xstar]
        )
        true_err = exact_true_error(pr.h, cfg.distribution)
        assert true_err <= flag_mass + unflagged_err + 1e-12


# --- persistence ----------------------------------------------------------------------


def test_persist_run_layout(tmp_path):
    out = tmp_path / "run1"
    cfg = comparison_config(output_dir=str(out))
    records, summary = run_comparison(cfg)
    returned = persist_run(records, summary, cfg)
    assert returned == str(out)
    for name in ("config.json", "trials.csv", "summary.json", "manifest.json"):
        assert (out / name).exists()

    with open(out / "trials.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == TRIALS_CSV_HEADER.split(",")
    assert len(rows) - 1 == cfg.trials
    # the floats were written with repr, so they parse back exactly
    first = records[0]
    assert float(rows[1][1]) == first.eps_erm
    assert float(rows[1][6]) == first.b_erm
    covered = [int(r[8]) for r in rows[1:]]
    assert sum(covered) / len(covered) == summary["coverage_erm"]

    manifest = load_json(str(out / "manifest.json"))
    assert manifest["seed"] == cfg.seed
    assert manifest["artifact"] == "priverm"
    assert set(manifest["files"].values()) == {
        "config.json", "trials.csv", "summary.json"
    }
    stored = load_json(str(out / "summary.json"))
    assert stored == json.loads(json.dumps(summary))


def test_persist_run_requires_output_dir():
    cfg = comparison_config()
    records, summary = run_comparison(cfg)
    with pytest.raises(ValueError):
        persist_run(records, summary, cfg)


def test_persisted_csv_is_byte_stable(tmp_path):
    paths = []
    for i, threads in enumerate((1, 4)):
        out = tmp_path / f"run{i}"
        cfg = comparison_config(threads=threads, output_dir=str(out))
        records, summary = run_comparison(cfg)
        persist_run(records, summary, cfg)
        paths.append(out / "trials.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_persisted_config_round_trips(tmp_path):
    out = tmp_path / "run"
    cfg = comparison_config(output_dir=str(out))
    records, summary = run_comparison(cfg)
    persist_run(records, summary, cfg)
    echo = load_json(str(out / "config.json"))
    assert echo["m"] == cfg.m
    assert echo["seed"] == cfg.seed
    assert echo["h_class"]["domain_size"] == cfg.H.domain.size
    assert len(echo["distribution"]["support"]) == 4
    assert set(echo["distribution"]["support"][0]) == {"x", "xstar", "y", "p"}


# --- deviation experiment ---------------------------------------------------------------


def test_deviation_report_fields():
    Phi = full_class(4, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    prime = phi_prime_subclass(Phi, family.pairs)
    rep = run_theorem5_experiment(family, prime, m=60, trials=400, seed=5)
    assert rep["m"] == 60 and rep["trials"] == 400
    assert rep["p_star"] == pytest.approx((1 - family.alpha) / 2, abs=1e-12)
    for key in ("freq_signed_hat", "freq_abs_hat", "freq_abs_star",
                "freq_claim", "freq_existential"):
        assert 0.0 <= rep[key] <= 1.0
    assert rep["freq_claim"] >= max(rep["freq_abs_hat"], rep["freq_abs_star"]) / 2
    assert "worst-case" in rep["note"]


def test_deviation_star_fluctuation_is_centered():
    Phi = full_class(4, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    prime = phi_prime_subclass(Phi, family.pairs)
    rep = run_theorem5_experiment(family, prime, m=100, trials=2000, seed=11)
    # P[flag] estimates are unbiased for the fixed member
    assert abs(rep["mean_dev_star"]) < 0.01


def test_deviation_vanishes_at_large_sample():
    Phi = full_class(4, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    prime = phi_prime_subclass(Phi, family.pairs)
    rep = run_theorem5_experiment(family, prime, m=20_000, trials=50, seed=3)
    assert rep["freq_claim"] == 0.0
    assert rep["freq_existential"] == 0.0


def test_deviation_threads_do_not_change_result():
    Phi = full_class(4, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    prime = phi_prime_subclass(Phi, family.pairs)
    a = run_theorem5_experiment(family, prime, m=40, trials=200, seed=8, threads=1)
    b = run_theorem5_experiment(family, prime, m=40, trials=200, seed=8, threads=4)
    assert a == b


def test_deviation_requires_star_in_subclass():
    Phi = full_class(4, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    prime = phi_prime_subclass(Phi, family.pairs)
    others = [phi for phi in prime if phi.bits != family.phi_star.bits]
    broken = HypothesisClass.from_hypotheses(Phi.domain, others)
    with pytest.raises(ValueError):
        run_theorem5_experiment(family, broken, m=10, trials=5, seed=1)


def test_deviation_validates_sizes():
    Phi = full_class(4, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    prime = phi_prime_subclass(Phi, family.pairs)
    with pytest.raises(ValueError):
        run_theorem5_experiment(family, prime, m=0, trials=5, seed=1)
    with pytest.raises(ValueError):
        run_theorem5_experiment(family, prime, m=5, trials=0, seed=1)


# --- failure recording -------------------------------------------------------------------


def test_failed_trials_are_recorded_not_dropped():
    # delta passes config validation but fails bound construction per trial
    cfg = comparison_config(delta=1.5, trials=4)
    records, summary = run_comparison(cfg)
    assert records == []
    assert summary["effective_trials"] == 0
    assert [f["trial"] for f in summary["failed_trials"]] == [0, 1, 2, 3]
    assert all(f["error"] for f in summary["failed_trials"])
    assert summary["coverage_erm"] == 0.0


def test_failed_trials_are_recorded_under_threads():
    cfg = comparison_config(delta=1.5, trials=4, threads=3)
    records, summary = run_comparison(cfg)
    assert records == []
    assert len(summary["failed_trials"]) == 4


@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"delta": 1.5}, "delta must be in (0,1), got 1.5"),
        ({"C": 0}, "C must be positive, got 0"),
        ({"C": -2.5}, "C must be positive, got -2.5"),
        ({"C": float("nan")}, "Invalid literal for Fraction: 'nan'"),
        ({"m": 0}, "m must be >= 1, got 0"),
        ({"m": 0, "C": 0}, "C must be positive, got 0"),
    ],
)
def test_failed_trials_keep_their_order_and_messages(overrides, error):
    records, summary = run_comparison(comparison_config(trials=3, **overrides))
    assert records == []
    assert summary["failed_trials"] == [
        {"trial": t, "error": error} for t in range(3)
    ]


# --- the comparison against a brute-force per-trial oracle ------------------------------


def oracle_trial(cfg: ExperimentConfig, t: int) -> tuple:
    """Trial t re-solved on its drawn sample from the raw losses.

    Standard ERM takes the first member with the fewest errors; privileged
    ERM the first pair, in (h index, phi index) order, with the smallest
    (exact Fraction objective, flagged count).
    """
    s = sample(cfg.distribution, cfg.m, mix_seed(cfg.seed, t))
    C = Fraction(str(cfg.C)) if isinstance(cfg.C, float) else Fraction(cfg.C)
    errors = [sum(zero_one_loss(h.bits[x.x], x.y) for x in s) for h in cfg.H]
    i_std = errors.index(min(errors))
    best = None
    for i, h in enumerate(cfg.H):
        for j, phi in enumerate(cfg.Phi):
            n_ig = n_u = 0
            for x in s:
                lstar = ignoring_loss(phi.bits[x.xstar], x.y)
                n_ig += lstar
                n_u += max(zero_one_loss(h.bits[x.x], x.y) - lstar, 0)
            cand = (Fraction(n_ig) / C + n_u, n_ig, i, j, n_u)
            if best is None or cand < best:
                best = cand
    _, n_ig, i_pr, _, n_u = best
    m = cfg.m
    return (
        errors[i_std] / m,
        n_ig / m,
        n_u / m,
        exact_true_error(cfg.H[i_std], cfg.distribution),
        exact_true_error(cfg.H[i_pr], cfg.distribution),
    )


# 1/3 as a float is 3333333333333333/10**16: its integer keys overflow int64
ORACLE_COSTS = (1, 2, 0.5, 1 / 3, Fraction(10**15 + 1, 10**15))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 10_000),
    st.sampled_from(ORACLE_COSTS),
    st.integers(1, 80),
    st.integers(1, 4),
)
def test_comparison_records_match_brute_force_oracle(seed, C, m, trials):
    rng = random.Random(seed)
    n_x, n_xs = rng.randint(1, 4), rng.randint(1, 4)
    points = [(x, xs, y) for x in range(n_x) for xs in range(n_xs) for y in (0, 1)]
    support = rng.sample(points, rng.randint(1, min(6, len(points))))
    weights = [rng.randint(1, 9) for _ in support]
    dist = FiniteDistribution(tuple(
        (Triple(*p), w / sum(weights)) for p, w in zip(support, weights)
    ))
    cfg = ExperimentConfig(
        distribution=dist,
        H=rand_class(rng, n_x, rng.randint(1, 8), "X"),
        Phi=rand_class(rng, n_xs, rng.randint(1, 8), "X*"),
        m=m, trials=trials, delta=0.05, seed=rng.getrandbits(32), C=C,
    )
    records, summary = run_comparison(cfg)
    assert summary["failed_trials"] == []
    assert [r.trial for r in records] == list(range(trials))
    for r in records:
        got = (r.eps_erm, r.eps_ig, r.eps_u, r.true_err_erm, r.true_err_pr)
        assert got == oracle_trial(cfg, r.trial)


def test_criterion_9_trials_csv_is_pinned(tmp_path):
    """Criterion 9's run, byte for byte as the per-sample solvers wrote it."""
    H, Phi = construct_theorem1(1)
    dist = FiniteDistribution((
        (Triple(0, 0, 0), 0.4),
        (Triple(1, 1, 1), 0.35),
        (Triple(2, 2, 0), 0.25),
    ))
    cfg = ExperimentConfig(
        distribution=dist, H=H, Phi=Phi, m=40, trials=50, delta=0.05,
        seed=909, output_dir=str(tmp_path),
    )
    persist_run(*run_comparison(cfg), cfg)
    digest = hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest()
    assert digest == "c4f4baa86278cc6b9b4c083c545cef0c344545cb4cdd3f7a620af153a9809048"
