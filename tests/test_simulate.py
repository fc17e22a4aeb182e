"""Seeded sampling, the comparison and deviation experiments, persistence."""

import csv
import functools
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
    build_aux_class,
    construct_lemma2_witness,
    construct_theorem1,
    construct_theorem5_family,
    erm_privileged,
    exact_true_error,
    phi_prime_subclass,
    sample,
    vc_dimension,
)
from priverm import simulate
from priverm.bounds import (
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
    load_json,
)
from priverm.simulate import (
    TRIALS_CSV_HEADER,
    ExperimentConfig,
    TrialRecord,
    _trial_counts,
    mix_seed,
    persist_run,
    run_comparison,
    run_theorem5_experiment,
)

from conftest import oracle_privileged, oracle_standard, rand_class


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


@pytest.mark.parametrize("m", [2**62, 10**400])
def test_sample_rejects_an_m_too_large_for_an_array(m):
    # numpy rejects these shapes before it allocates, so no memory is asked for
    with pytest.raises(ValueError):
        sample(three_point_distribution(), m, 1)


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


class FixedGenerator:
    """Stands in for ``default_rng(seed)``: draws the first m of TRAILING_DRAWS."""

    def __init__(self, seed):
        pass

    def random(self, m):
        return TRAILING_DRAWS[:m].copy()


def test_sample_never_draws_a_trailing_zero_mass_point(monkeypatch):
    """Draws past a total of 1 - 1e-12 go to the last point with mass."""
    dist = TRAILING_ZERO
    assert dist.cumulative[-1] < 1.0
    monkeypatch.setattr(np.random, "default_rng", FixedGenerator)
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
@pytest.mark.parametrize("m", DRAW_LENGTHS)
def test_uniform_rows_carry_nothing_from_one_row_to_the_next(m):
    # one PCG64 is re-seeded in place for every row, so a seed drawn again,
    # after another seed or after itself, gives its first row again
    s, t = EDGE_SEEDS[2], EDGE_SEEDS[3]
    rows = simulate._uniform_rows([s, t, s, s], m)
    want = np.random.default_rng(s).random(m)
    for r in (0, 2, 3):
        assert np.array_equal(rows[r], want)
    assert np.array_equal(rows[1], np.random.default_rng(t).random(m))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", DRAW_LENGTHS)
def test_uniform_rows_of_no_seeds_are_empty(m):
    rows = simulate._uniform_rows([], m)
    assert rows.shape == (0, m) and rows.dtype == np.float64


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
@example(list(EDGE_SEEDS))
def test_seed_words_equal_seed_sequence_state(seeds):
    words = simulate._seed_words(seeds)
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
    assert np.array_equal(words, np.array(want))


@pytest.mark.parametrize("asked", [(2, np.uint32), (4, np.uint32), (8, np.uint64)])
def test_uniform_rows_refuse_a_pcg64_seeding_from_other_words(monkeypatch, asked):
    # seeded from other words, PCG64 would draw other streams than default_rng
    monkeypatch.setattr(np.random, "PCG64", lambda seq: seq.generate_state(*asked))
    with pytest.raises(RuntimeError, match=f"PCG64 asked for {asked[0]} words"):
        simulate._uniform_rows([0], 1)


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
    # C may be an exact Fraction; no float is needed to check its range
    assert comparison_config(C=Fraction(1, 3)).C == Fraction(1, 3)


def _deviation_args() -> tuple:
    Phi = full_class(4, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.01)
    return family, phi_prime_subclass(Phi, family.pairs)


@pytest.mark.parametrize(
    "keyword, call",
    [
        # the search has no modes: exact is False only when the budget cut it short
        ("mode", lambda: vc_dimension(full_class(2), mode="lower-bound-only")),
        # the no-op threads option is gone from the library
        ("threads", lambda: comparison_config(threads=1)),
        # the run directory is persist_run's argument, not part of the config
        ("output_dir", lambda: comparison_config(output_dir="run")),
        ("threads", lambda: run_theorem5_experiment(
            *_deviation_args(), m=40, trials=20, seed=8, threads=1)),
        # the witness is always checked; there is no option to skip it
        ("verify", lambda: construct_lemma2_witness(*construct_theorem1(2), verify=False)),
    ],
    ids=["vc_dimension", "ExperimentConfig-threads", "ExperimentConfig-output_dir",
         "run_theorem5_experiment", "construct_lemma2_witness"],
)
def test_retired_keywords_raise_type_error(keyword, call):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        call()


def test_library_searches_take_no_node_budget(monkeypatch):
    # run_comparison and the constructions use the VC answers they search
    # for, so a budget that would cut those searches changes none of them
    from priverm import constructions, vc

    config = comparison_config()
    Phi4 = full_class(4, "X*")
    H2, Phi2 = construct_theorem1(2)

    def results() -> tuple:
        summary = run_comparison(config)[1]
        return (
            (summary["d"], summary["dstar"], summary["d_a"]),
            construct_theorem5_family(Phi4, eps=0.1, delta=0.01)[0].pairs,
            construct_lemma2_witness(H2, Phi2),
        )

    want = results()
    # one node cuts every search here, those of d and d* at d = 1 included
    cut = functools.partial(vc.vc_dimension, budget=1)
    for cls in (config.H, config.Phi, vc.build_aux_class(config.H, config.Phi), Phi4, H2, Phi2):
        assert not cut(cls).exact
    searched = []

    def counted_cut(cls, **kwargs):
        searched.append(cls)
        return cut(cls, **kwargs)

    monkeypatch.setattr(simulate, "vc_dimension", counted_cut)
    monkeypatch.setattr(constructions, "vc_dimension", cut)
    # run_comparison keeps the last pair's dimensions: forget them, so the
    # patched run searches d, d* and d_a again, and forget its answers after
    simulate._dimensions.cache_clear()
    try:
        assert results() == want
    finally:
        simulate._dimensions.cache_clear()
    assert len(searched) == 3


def test_comparison_rejects_incompatible_support():
    # the config checks the support's domains, so no run starts on it
    for triple, index in [(Triple(17, 0, 0), "x index 17"), (Triple(0, 9, 0), "xstar index 9")]:
        bad = FiniteDistribution(((triple, 1.0),))
        with pytest.raises(DomainMismatchError) as exc:
            comparison_config(distribution=bad)
        assert str(exc.value) == f"support {index} outside domain of size 3"


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
    for rate, f in (
        ("coverage_erm", "covered_erm"),
        ("coverage_pr", "covered_pr"),
        ("pr_leq_erm_rate", "pr_leq_erm"),
    ):
        assert summary[rate] == sum(getattr(r, f) for r in records) / len(records)
    for f in ("eps_erm", "eps_ig", "eps_u", "true_err_erm", "true_err_pr"):
        want = math.fsum(getattr(r, f) for r in records) / len(records)
        assert summary[f"mean_{f}"] == want


def test_trial_records_are_immutable_named_tuples():
    cfg = comparison_config()
    records, _ = run_comparison(cfg)
    r = records[0]
    with pytest.raises(AttributeError):
        r.eps_erm = 0.5
    assert r == tuple(r) and r[1] == r.eps_erm
    twin = TrialRecord(*r)
    assert twin is not r and twin == r and hash(twin) == hash(r)
    assert r._replace(trial=7).trial == 7 and r.trial == 0
    assert run_comparison(cfg)[0] == records


def test_comparison_trivial_phi_gives_equal_true_errors():
    H, _ = construct_theorem1(1)
    zeros = HypothesisClass.from_patterns(FiniteDomain(3, "X*"), [(0, 0, 0)])
    cfg = comparison_config(Phi=zeros, trials=30)
    records, _ = run_comparison(cfg)
    for r in records:
        assert r.eps_ig == 0.0
        assert r.true_err_erm == r.true_err_pr


def test_sim_comparison_writes_the_trials_csv_of_the_library(tmp_path, capsys):
    cfg = comparison_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["--output-dir", str(out), "sim", "--config", str(path)]) == 0
    capsys.readouterr()
    cfg = comparison_config()
    persist_run(*run_comparison(cfg), cfg, str(tmp_path / "lib"))
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
    cfg = comparison_config()
    records, summary = run_comparison(cfg)
    returned = persist_run(records, summary, cfg, str(out))
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


def test_persisted_csv_is_byte_stable(tmp_path):
    paths = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        cfg = comparison_config()
        records, summary = run_comparison(cfg)
        persist_run(records, summary, cfg, str(out))
        paths.append(out / "trials.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_persisted_config_round_trips(tmp_path):
    out = tmp_path / "run"
    cfg = comparison_config()
    records, summary = run_comparison(cfg)
    persist_run(records, summary, cfg, str(out))
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


def test_sim_deviation_prints_the_report_of_the_library(tmp_path, capsys):
    want = run_theorem5_experiment(*_deviation_args(), m=40, trials=200, seed=8)
    path = tmp_path / "dev.json"
    path.write_text(json.dumps({"phi_class": class_to_json(full_class(4, "X*")), "eps": 0.1,
                                "delta": 0.01, "m": 40, "trials": 200, "seed": 8}),
                    encoding="utf-8")
    assert main(["sim", "--kind", "deviation", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == want


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


def test_deviation_reports_do_not_depend_on_the_block_size(monkeypatch):
    """One trial per block, |Phi'| + 1 cells, and seven rows with a ragged
    last block give the default block size's reports, on Phi' and on Phi."""
    Phi = full_class(8, "X*")
    family, _ = construct_theorem5_family(Phi, eps=0.1, delta=0.005, heavy_side=(0, 1, 0, 1))
    prime = phi_prime_subclass(Phi, family.pairs)
    args = dict(m=50, trials=1100, seed=4321)
    for search in (prime, Phi):
        # 1100 trials also span more than one block of the default size
        assert args["trials"] > simulate.BLOCK_CELLS // len(search)
        want = run_theorem5_experiment(family, search, **args)
        for cells in (1, len(prime) + 1, 7 * len(search)):
            monkeypatch.setattr(simulate, "BLOCK_CELLS", cells)
            assert run_theorem5_experiment(family, search, **args) == want
        monkeypatch.undo()


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
    # so no run ever reaches its trials with one: a config is frozen, and a
    # copy or an unpickled one is rebuilt through the checking constructor
    valid = comparison_config(trials=4)
    fields = {name: getattr(valid, name) for name in ExperimentConfig._fields}
    with pytest.raises(ValueError, match=r"^delta must be in \(0, 1\), got 1.5$"):
        ExperimentConfig(**{**fields, "delta": 1.5})
    with pytest.raises(AttributeError):
        valid.delta = 1.5
    assert valid.__reduce__() == (ExperimentConfig, tuple(fields.values()))


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
    """Trial t re-solved on its drawn sample by the shared brute-force oracles."""
    s = sample(cfg.distribution, cfg.m, mix_seed(cfg.seed, t))
    i_std, n_err = oracle_standard(cfg.H, s)
    _, n_ig, i_pr, _, n_u = oracle_privileged(cfg.H, cfg.Phi, s, cfg.C)
    m = cfg.m
    return (
        n_err / m,
        n_ig / m,
        n_u / m,
        exact_true_error(cfg.H[i_std], cfg.distribution),
        exact_true_error(cfg.H[i_pr], cfg.distribution),
    )


def assert_bounds_match_a_fresh_evaluation(cfg: ExperimentConfig, records, summary) -> None:
    """Each record equals the one rebuilt from its empirical and true errors
    through the public path: ``BoundInputs``, ``bound_erm``, ``bound_pr`` and
    ``sufficient_condition``."""
    for r in records:
        inputs = BoundInputs(
            m=cfg.m, delta=cfg.delta, d=summary["d"], dstar=summary["dstar"],
            d_a=summary["d_a"], eps_erm=r.eps_erm, eps_ig=r.eps_ig, eps_u=r.eps_u,
        )
        b_e, b_p = bound_erm(inputs), bound_pr(inputs)
        suff = sufficient_condition(inputs).holds if inputs.premise_holds else None
        rebuilt = TrialRecord(
            r.trial, r.eps_erm, r.eps_ig, r.eps_u, r.true_err_erm, r.true_err_pr,
            b_e, b_p, r.true_err_erm <= b_e, r.true_err_pr <= b_p, suff, b_p <= b_e,
        )
        assert type(r) is TrialRecord and len(r) == len(TrialRecord._fields)
        assert r == rebuilt


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
    return {r._replace(trial=0) for r in records}


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


CRITERION_6_SUPPORTS = (
    ((Triple(0, 0, 0), 0.5), (Triple(1, 1, 0), 0.3), (Triple(2, 2, 1), 0.2)),
    (
        (Triple(0, 0, 0), 0.25), (Triple(0, 0, 1), 0.15), (Triple(1, 1, 1), 0.20),
        (Triple(2, 2, 0), 0.25), (Triple(2, 1, 1), 0.15),
    ),
    ((Triple(0, 2, 1), 0.3), (Triple(1, 0, 0), 0.3), (Triple(2, 1, 0), 0.2), (Triple(2, 2, 1), 0.2)),
)


def test_comparison_records_match_the_public_bounds_path():
    # criterion 6's runs, with fewer trials, and a run on the theorem-1 pair at
    # d = 2: rates taken once per run give every record the public path gives
    H, Phi = construct_theorem1(1)
    configs = [
        ExperimentConfig(
            distribution=FiniteDistribution(support), H=H, Phi=Phi, m=200,
            trials=200, delta=0.05, seed=600 + i,
        )
        for i, support in enumerate(CRITERION_6_SUPPORTS)
    ]
    H2, Phi2 = construct_theorem1(2)
    dist2 = FiniteDistribution((
        (Triple(0, 0, 0), 0.3), (Triple(1, 3, 1), 0.2),
        (Triple(4, 5, 0), 0.25), (Triple(5, 2, 1), 0.25),
    ))
    configs.append(ExperimentConfig(
        distribution=dist2, H=H2, Phi=Phi2, m=60, trials=200, delta=0.1, seed=603,
    ))
    for cfg in configs:
        records, summary = run_comparison(cfg)
        assert [r.trial for r in records] == list(range(cfg.trials))
        assert_bounds_match_a_fresh_evaluation(cfg, records, summary)


def test_dimensions_keep_only_the_last_pair():
    # two pairs in turn: each call gives the fresh exact answers, and only a
    # repeat of the last pair, or a copy of it without symmetries, is a hit
    pairs = [construct_theorem1(1), construct_theorem1(2)]
    fresh = [
        tuple(
            vc_dimension(cls, budget=None).vc
            for cls in (H, Phi, build_aux_class(H, Phi))
        )
        for H, Phi in pairs
    ]
    assert fresh == [(1, 1, 3), (2, 2, 6)]
    simulate._dimensions.cache_clear()
    for i in (0, 1, 0, 1, 1):
        assert simulate._dimensions(*pairs[i]) == fresh[i]
    H, Phi = pairs[1]
    bare = [HypothesisClass(c.domain, c.members) for c in (H, Phi)]
    assert H.symmetries and not bare[0].symmetries and bare == [H, Phi]
    assert simulate._dimensions(*bare) == fresh[1]
    info = simulate._dimensions.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (2, 4, 1)


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
        seed=909,
    )
    persist_run(*run_comparison(cfg), cfg, str(tmp_path))
    digest = hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest()
    assert digest == "c4f4baa86278cc6b9b4c083c545cef0c344545cb4cdd3f7a620af153a9809048"
    digest = hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest()
    assert digest == "a1e882f45ea789be4fa9801434382b166ef739f66b8da986b63772fe7bdff9a5"
