"""Seeded sampling, the comparison and deviation experiments, persistence."""

import csv
import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from priverm.bounds import (
    PREMISE_TOLERANCE,
    BoundInputs,
    bound_erm,
    bound_pr,
    sufficient_condition,
)
from priverm.constructions import full_class
from priverm.cli import main
from priverm.core import (
    DomainMismatchError,
    class_to_json,
    ignoring_loss,
    load_json,
    zero_one_loss,
)
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("master", [0, 2**64 - 1])
def test_mix_seed_of_an_array_equals_the_scalar_calls(master):
    """A block's seeds mixed as one uint64 array, across a block boundary."""
    step = simulate._BLOCK_DRAWS // 200
    for lo, hi in [(0, step), (step - 3, step + 3), (2**64 - 4, 2**64)]:
        trials = np.arange(lo, hi, dtype=np.uint64)
        got = mix_seed(master, trials)
        assert got.dtype == np.uint64
        assert got.tolist() == [mix_seed(master, t) for t in range(lo, hi)]


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


MIDDLE_ZEROS = FiniteDistribution((
    (Triple(0, 0, 0), 0.3), (Triple(1, 1, 1), 0.0), (Triple(2, 2, 0), 0.0), (Triple(3, 0, 1), 0.7),
))


@pytest.mark.parametrize("dist", [three_point_distribution(), MIDDLE_ZEROS])
def test_trial_counts_put_a_draw_equal_to_a_cumulative_total_past_it(dist, monkeypatch):
    """As ``searchsorted(side="right")`` does, so zero-mass points get no draw."""
    cum = np.asarray(dist.cumulative)
    draws = np.concatenate([[0.0], cum[:-1], np.nextafter(cum[:-1], 0.0)])
    monkeypatch.setattr(
        simulate, "_uniform_rows", lambda seeds, m: np.tile(draws[:m], (len(seeds), 1))
    )
    want = np.bincount(np.searchsorted(cum, draws, side="right"), minlength=len(cum))
    counts = _trial_counts(dist, len(draws), 0, 3)
    assert counts.tolist() == [want.tolist()] * 3


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
     FiniteDistribution(((Triple(1, 2, 0), 1.0),)),
     FiniteDistribution(((Triple(0, 0, 0), 0.0), (Triple(1, 1, 1), 0.3),
                         (Triple(2, 2, 0), 0.7))),
     MIDDLE_ZEROS],
    ids=["three_point", "trailing_zero", "point_mass", "leading_zero", "middle_zeros"],
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
@pytest.mark.parametrize("seed", [np.int64(12345), np.uint64(2**64 - 1), True])
def test_trial_counts_take_any_integer_seed_as_its_int(seed):
    dist = three_point_distribution()
    got = _trial_counts(dist, 30, seed, 4)
    assert np.array_equal(got, reference_counts(dist, 30, int(seed), 4))


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
        comparison_config(m=-1)
    # the no-op threads option is gone from the library
    with pytest.raises(TypeError):
        comparison_config(threads=1)
    # C may be an exact Fraction; no float is needed to check its range
    assert comparison_config(C=Fraction(1, 3)).C == Fraction(1, 3)


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
    for f in ("eps_erm", "eps_ig", "eps_u", "true_err_erm", "true_err_pr"):
        want = math.fsum(getattr(r, f) for r in records) / len(records)
        assert summary[f"mean_{f}"] == want


def test_comparison_trivial_phi_gives_equal_true_errors():
    H, _ = construct_theorem1(1)
    zeros = HypothesisClass.from_patterns(FiniteDomain(3, "X*"), [(0, 0, 0)])
    cfg = comparison_config(Phi=zeros, trials=30)
    records, _ = run_comparison(cfg)
    for r in records:
        assert r.eps_ig == 0.0
        assert r.true_err_erm == r.true_err_pr


def test_comparison_thread_count_does_not_change_records(tmp_path, capsys):
    # runs have one thread and no thread option; the CLI writes the library's bytes
    cfg = comparison_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["--output-dir", str(out), "sim", "--config", str(path)]) == 0
    capsys.readouterr()
    cfg = comparison_config(output_dir=str(tmp_path / "lib"))
    persist_run(*run_comparison(cfg), cfg)
    assert (out / "trials.csv").read_bytes() == (tmp_path / "lib" / "trials.csv").read_bytes()


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
    for i in range(2):
        out = tmp_path / f"run{i}"
        cfg = comparison_config(output_dir=str(out))
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


def test_deviation_threads_do_not_change_result(tmp_path, capsys):
    # runs have one thread and no thread option; the CLI reports the library's result
    Phi = full_class(4, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    prime = phi_prime_subclass(Phi, family.pairs)
    want = run_theorem5_experiment(family, prime, m=40, trials=200, seed=8)
    path = tmp_path / "dev.json"
    path.write_text(json.dumps({"phi_class": class_to_json(Phi), "eps": 0.1, "delta": 0.01,
                                "m": 40, "trials": 200, "seed": 8}), encoding="utf-8")
    assert main(["sim", "--kind", "deviation", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == want
    with pytest.raises(TypeError):
        run_theorem5_experiment(family, prime, m=40, trials=200, seed=8, threads=1)


HEAVY_SIDES = ((0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0))


def test_deviation_reports_are_pinned():
    """Four heavy sides, searching Phi' and all of Phi, as the list-based code gave them.

    ``mean_dev_star`` is left out of the digest and checked on its own: it is
    the correctly rounded mean of the fixed member's deviations.
    """
    Phi = full_class(8, "X*")
    m, trials, seed = 50, 2000, 4321
    reports = []
    for heavy in HEAVY_SIDES:
        family, dist = construct_theorem5_family(Phi, eps=0.1, delta=0.005, heavy_side=heavy)
        prime = phi_prime_subclass(Phi, family.pairs)
        flags = [family.phi_star.bits[t.xstar] for t, _ in dist.support]
        flagged = [int(row @ flags) for row in reference_counts(dist, m, seed, trials)]
        for search in (prime, Phi):
            rep = run_theorem5_experiment(family, search, m=m, trials=trials, seed=seed)
            p_star = rep["p_star"]
            assert p_star == pytest.approx((1 - family.alpha) / 2, abs=1e-12)
            dev_star = [p_star - n / m for n in flagged]
            assert rep.pop("mean_dev_star") == math.fsum(dev_star) / trials
            reports.append(rep)
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "31b3d892b795f4734f57b14032349aade52839e6c1e7fd0a4c98f0f007889939"


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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_deviation_rejects_seeds_outside_64_bits(seed):
    # mix_seed would reduce the seed mod 2**64 and replay another seed's run
    Phi = full_class(4, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    prime = phi_prime_subclass(Phi, family.pairs)
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
        run_theorem5_experiment(family, prime, m=5, trials=3, seed=seed)
    assert run_theorem5_experiment(family, prime, m=5, trials=3, seed=2**64 - 1)


# --- bad configs are rejected up front ---------------------------------------------------


def test_bad_delta_is_rejected_before_any_trial():
    # no config holds a bad delta, not even one derived from a valid config,
    # so no run ever reaches its trials with one
    valid = comparison_config(trials=4)
    with pytest.raises(ValueError, match=r"^delta must be in \(0, 1\), got 1.5$"):
        dataclasses.replace(valid, delta=1.5)


def test_bad_sim_config_leaves_no_run_directory(tmp_path, capsys):
    cfg = comparison_config(trials=4).to_json()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "delta": 1.5}), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["--output-dir", str(out), "sim", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: delta must be in (0, 1), got 1.5\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"delta": 1.5}, "delta must be in (0, 1), got 1.5"),
        ({"C": 0}, "c must be positive and finite, got 0"),
        ({"C": -2.5}, "c must be positive and finite, got -2.5"),
        ({"C": float("nan")}, "c must be positive and finite, got nan"),
        ({"m": 0}, "m must be >= 1, got 0"),
        ({"m": 0, "C": 0}, "m must be >= 1, got 0"),
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"delta": 0}, "delta must be in (0, 1), got 0"),
        ({"delta": 1}, "delta must be in (0, 1), got 1"),
        ({"C": math.inf}, "c must be positive and finite, got inf"),
        ({"C": Fraction(-1, 3)}, "c must be positive and finite, got -1/3"),
        ({"seed": -1}, "seed must be in [0, 2**64), got -1"),
        ({"seed": 2**64}, f"seed must be in [0, 2**64), got {2**64}"),
    ],
    ids=["delta-1.5", "c-0", "c-negative", "c-nan", "m-0", "m-0-and-c-0",
         "trials-0", "delta-0", "delta-1", "c-inf", "c-negative-fraction",
         "seed-negative", "seed-2**64"],
)
def test_bad_comparison_config_is_rejected_up_front(overrides, error):
    with pytest.raises(ValueError) as exc:
        comparison_config(**{"trials": 3, **overrides})
    assert str(exc.value) == error


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


def assert_bounds_match_a_fresh_evaluation(cfg: ExperimentConfig, records, summary) -> None:
    """Each record's bounds and flags, evaluated again from that record alone."""
    for r in records:
        inputs = BoundInputs(
            m=cfg.m, delta=cfg.delta, d=summary["d"], dstar=summary["dstar"],
            d_a=summary["d_a"], eps_erm=r.eps_erm, eps_ig=r.eps_ig, eps_u=r.eps_u,
        )
        b_e, b_p = bound_erm(inputs), bound_pr(inputs)
        premise = abs(r.eps_erm - (r.eps_ig + r.eps_u)) <= PREMISE_TOLERANCE
        assert (r.b_erm, r.b_pr) == (b_e, b_p)
        assert r.covered_erm == (r.true_err_erm <= b_e)
        assert r.covered_pr == (r.true_err_pr <= b_p)
        assert r.pr_leq_erm == (b_p <= b_e)
        assert r.sufficient_holds == (
            sufficient_condition(inputs).holds if premise else None
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
# 30 trials, of which some share every part of the solved outcome but h_pr
@example(20, 1, 10, 30)
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
    assert_bounds_match_a_fresh_evaluation(cfg, records, summary)


def outcomes(records) -> set:
    return {dataclasses.replace(r, trial=0) for r in records}


def test_comparison_on_a_point_mass_shares_one_outcome():
    dist = FiniteDistribution(((Triple(2, 0, 1), 1.0),))
    cfg = comparison_config(distribution=dist, trials=50)
    records, summary = run_comparison(cfg)
    assert [r.trial for r in records] == list(range(50))
    assert len(outcomes(records)) == 1
    assert_bounds_match_a_fresh_evaluation(cfg, records, summary)
    for r in records[:3]:
        got = (r.eps_erm, r.eps_ig, r.eps_u, r.true_err_erm, r.true_err_pr)
        assert got == oracle_trial(cfg, r.trial)


def test_comparison_at_large_m_repeats_few_outcomes():
    cfg = comparison_config(m=20_000, trials=40)
    records, summary = run_comparison(cfg)
    assert [r.trial for r in records] == list(range(40))
    assert len(outcomes(records)) >= 30
    assert_bounds_match_a_fresh_evaluation(cfg, records, summary)


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
