"""Seeded Monte Carlo experiments over finite-support distributions.

Per-trial randomness comes from one master seed: trial t uses a 64-bit
splitmix-style hash of (seed, t), so each trial's draw is fixed however the
trials are computed.  Trial t's uniforms are exactly those of
``np.random.default_rng(mix_seed(seed, t))``, but no SeedSequence is built per
trial: a block of trial seeds is mixed as one uint64 array, NumPy's
SeedSequence hash runs once over the block, and NumPy seeds each trial's
PCG64 from that trial's hashed words.  ``sample`` draws through
``default_rng`` itself, so a trial drawn again by ``sample`` checks the
batched path.  A drawn sample enters both experiments only as its count
vector over the support, counted by thresholds: a trial's draws below each
cumulative total of the support.  The comparison experiment
searches its dimensions d, d* and d_a once per pair of classes (the last
pair's are kept), hands all trials' counts to the ERM count kernel at once,
computes the three ``r_fast`` rates once per run, and evaluates the
bounds from those rates once per distinct solved outcome; its records and
summary are built from that table of distinct outcomes, each record a named
tuple of its trial index and its outcome's fields, built without the named
tuple's generated ``__new__``.  The deviation experiment takes
every trial's empirical flag rates from one matrix product and counts its
events over arrays.  True errors are computed exactly from the probability
table, never estimated; the only randomness in any record is the sample
itself.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import os
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .bounds import erm_bound, pr_bound, r_fast, sufficiency
from .constructions import Theorem5Family
from .core import (
    DeviationConfig,
    ExperimentConfig,
    FiniteDistribution,
    HypothesisClass,
    InputError,
    TripleSample,
    check_seed,
    check_sizes,
    dump_json,
    exact_true_error,
    positive_cost,
    premise_holds,
)
from .erm import BLOCK_CELLS, error_matrix, flag_matrix, solve_counts
from .vc import build_aux_class, vc_dimension

_MASK64 = (1 << 64) - 1

# NumPy's SeedSequence hash (a pool of four 32-bit words)
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# trials are drawn in row blocks of at most this many uniforms
_BLOCK_DRAWS = 1 << 16


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 values a SeedSequence hash constant takes, the same for every seed."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)


# one hashmix per pool word, then one per ordered pair of pool words
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
# one per 32-bit word of PCG64's four 64-bit seed words
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def mix_seed(master: int, trial: int | np.ndarray) -> int | np.ndarray:
    """Fixed 64-bit mixing of (master seed, trial index) into a trial seed.

    ``trial`` may also be a uint64 array of trial indices; the result is
    then the uint64 array of their seeds, element by element the same as
    the scalar calls (uint64 arithmetic wraps mod 2**64, as the masks do).
    """
    z = (master + 0x9E3779B97F4A7C15 * (trial + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _hashmix(v: np.ndarray, consts: np.ndarray, i: int, n: int) -> np.ndarray:
    """SeedSequence's hash of uint32 words by hash constants i, ..., i + n - 1.

    Row j of the n result rows hashes row j of v (or v itself, when it is
    one row) by constant i + j.
    """
    c = consts[i : i + n + 1, None]
    v = (v ^ c[:-1]) * c[1:]
    return v ^ (v >> 16)


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """Row r is ``np.random.SeedSequence(seeds[r]).generate_state(4, np.uint64)``.

    Seeds lie in [0, 2**64).  SeedSequence hashes a seed's low and high
    32-bit words into a pool of four words (a seed below 2**32 has one
    word, and the missing word hashes as 0 would), then expands the pool
    into four 64-bit words, the words PCG64 seeds itself from.  The hash
    constants advance alike for every seed, so each step here is one uint32
    array operation over all seeds.  The result is a C-contiguous native
    uint64 array of shape (len(seeds), 4).
    """
    s = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((_POOL, len(s)), dtype=np.uint32)
    pool[0] = s & _M32
    pool[1] = s >> 32
    pool = _hashmix(pool, _HASH_A, 0, _POOL)
    i = _POOL
    for src in range(_POOL):
        # pool[src] is not a destination, so its hash mixes into all three at once
        dst = [d for d in range(_POOL) if d != src]
        v = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(pool[src], _HASH_A, i, len(dst))
        pool[dst] = v ^ (v >> 16)
        i += len(dst)
    words = _hashmix(pool[np.arange(2 * _POOL) % _POOL], _HASH_B, 0, 2 * _POOL)
    # 32-bit words pair up little-endian into 64-bit words, as in SeedSequence
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _uniform_rows(seeds: Sequence[int], m: int) -> np.ndarray:
    """len(seeds)×m uniforms: row r equals ``default_rng(seeds[r]).random(m)``.

    ``default_rng(s)`` draws from a PCG64 that seeds itself from
    ``SeedSequence(s).generate_state(4, np.uint64)``; here each row's PCG64
    seeds itself from the row's ``_seed_words`` instead, hashed for the
    whole block at once.
    Callers ask for at most 2**16 rows, so an array too big for numpy means
    that m is too large.
    """
    try:
        out = np.empty((len(seeds), m))
    except ValueError as exc:
        raise InputError(f"m is too large for an array: {exc}") from None
    # imported here: it loads numpy.random, which NumPy 2 otherwise loads on first use
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # a NumPy whose PCG64 asked for other words would draw other streams
            if n_words != 4 or dtype is not np.uint64:
                raise RuntimeError(f"PCG64 asked for {n_words} words of {dtype}, not 4 of uint64")
            return self.words

    for row, words in zip(out, _seed_words(seeds)):
        np.random.Generator(np.random.PCG64(SeedWords(words))).random(out=row)
    return out


def _inverse_cdf(dist: FiniteDistribution) -> tuple[np.ndarray, int]:
    """Cumulative totals, and the index every draw is clamped to.

    Probabilities may sum to slightly less than 1, so a draw past the last
    cumulative total goes to the last point with positive mass.
    """
    last = len(dist.support) - 1
    while dist.support[last][1] == 0:
        last -= 1
    return np.asarray(dist.cumulative), last


def sample(dist: FiniteDistribution, m: int, seed: int) -> TripleSample:
    """m i.i.d. triples, deterministic given the seed.

    The seed is an integer in [0, 2**64); the draws are those of
    ``np.random.default_rng(seed).random(m)`` taken by inverse CDF.
    """
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    seed = check_seed(seed)
    cum, last = _inverse_cdf(dist)
    u = np.random.default_rng(seed).random(m)
    idx = np.searchsorted(cum, u, side="right")
    return TripleSample(tuple(dist.support[i][0] for i in np.minimum(idx, last)))


def _trial_counts(
    dist: FiniteDistribution, m: int, seed: int, trials: int
) -> np.ndarray:
    """trials×K matrix: row t counts the m draws of trial t over the support.

    Trial t draws what ``sample(dist, m, mix_seed(seed, t))`` draws.  Rows
    are drawn in blocks of at most 2**16 uniforms (one row when m is
    larger), each block's seeds mixed as one array.  ``sample``'s index of
    a draw u is at most j exactly when u < cum[j], because cum is
    non-decreasing; so a row's count of draws below cum[j], for each
    j < last, gives its counts up to point j, and the rest go to ``last``.
    """
    k = len(dist.support)
    cum, last = _inverse_cdf(dist)
    try:
        counts = np.zeros((trials, k), dtype=np.intp)
    except ValueError as exc:
        raise InputError(f"trials is too large for an array: {exc}") from None
    step = max(1, _BLOCK_DRAWS // max(m, 1))
    for lo in range(0, trials, step):
        hi = min(lo + step, trials)
        # a Python int master keeps the array's arithmetic in uint64
        trial_seeds = mix_seed(operator.index(seed), np.arange(lo, hi, dtype=np.uint64))
        u = _uniform_rows(trial_seeds, m)
        below = np.empty((hi - lo, last), dtype=np.intp)
        for j in range(last):
            below[:, j] = np.count_nonzero(u < cum[j], axis=1)
        counts[lo:hi, : last + 1] = np.diff(below, axis=1, prepend=0, append=m)
    return counts


class TrialRecord(NamedTuple):
    """One trial's empirical quantities, exact errors, bounds, and flags.

    A named tuple: fields read by name or by position, ``_replace`` makes a
    changed copy, and a record equals the plain tuple of its values.  The
    first ten fields name the columns of ``trials.csv``, in order.
    """

    trial: int
    eps_erm: float
    eps_ig: float
    eps_u: float
    true_err_erm: float
    true_err_pr: float
    b_erm: float
    b_pr: float
    covered_erm: bool
    covered_pr: bool
    sufficient_holds: Optional[bool]
    pr_leq_erm: bool

    def csv_row(self) -> list:
        return [
            self.trial,
            repr(self.eps_erm),
            repr(self.eps_ig),
            repr(self.eps_u),
            repr(self.true_err_erm),
            repr(self.true_err_pr),
            repr(self.b_erm),
            repr(self.b_pr),
            int(self.covered_erm),
            int(self.covered_pr),
        ]


TRIALS_CSV_HEADER = ",".join(TrialRecord._fields[:10])


@functools.lru_cache(maxsize=1)
def _dimensions(H: HypothesisClass, Phi: HypothesisClass) -> tuple[int, int, int]:
    """(d, d*, d_a): the VC dimensions of H, Phi and their aux class.

    Each is searched with no node budget, as the bounds use the answer.
    The last pair's answer is kept (and that pair with it), keyed by the
    classes' values; equality ignores ``symmetries``, which never change an
    exact answer.  A hit hashes every member of both classes, microseconds
    against the searches.
    """
    return (
        vc_dimension(H, budget=None).vc,
        vc_dimension(Phi, budget=None).vc,
        vc_dimension(build_aux_class(H, Phi), budget=None).vc,
    )


def run_comparison(
    config: ExperimentConfig,
) -> tuple[list[TrialRecord], dict]:
    """Standard vs privileged minimization across seeded trials.

    The dimensions entering the bounds are searched with no node budget by
    ``_dimensions``, which keeps the last pair of classes' answer, so runs
    on one pair search once.  The exact true error of every member of H is
    computed once per call.  Each trial's sample is drawn as its count vector
    over the support, and one call of the ERM count kernel solves both
    minimizers for every trial.  The three ``r_fast`` rates of d, d* and
    d_a are computed once, after the draws (an m too large for an array is
    named as that, before any float of it is taken).
    Every field of a record but ``trial`` is a function of the solved
    outcome (standard ERM's error count, both minimizers' indices, and the
    privileged flag and unflagged-error counts), so the bounds, the
    sufficient condition and the coverage events are evaluated from those
    rates once per distinct outcome of this call, and each trial's record is
    its index followed by its outcome's fields.
    ``config`` has checked every range and that the support lies on the
    domains of H and Phi, so every trial yields a record;
    the summary keeps an empty ``failed_trials`` list for its readers.
    Its rates are taken from one transpose of the records; the means use
    ``math.fsum``, so they are the same on every Python version.
    """
    dist, m, delta = config.distribution, config.m, config.delta
    points = [t for t, _ in dist.support]
    d, dstar, d_a = _dimensions(config.H, config.Phi)

    true_errors = [exact_true_error(h, dist) for h in config.H]
    counts = _trial_counts(dist, m, config.seed, config.trials)
    C = positive_cost(config.C)
    sol = solve_counts(
        error_matrix(config.H, points), counts, flag_matrix(config.Phi, points), C
    )
    n_erm = sol.n_err[np.arange(config.trials), sol.h_erm]
    # one solved outcome per trial, in trial order
    keys = list(zip(
        n_erm.tolist(),
        sol.h_erm.tolist(),
        sol.h_pr.tolist(),
        sol.n_ig.tolist(),
        sol.n_u.tolist(),
    ))
    rf_d, rf_star, rf_aux = (r_fast(dim, m, delta) for dim in (d, dstar, d_a))

    def evaluate(n_e: int, i_erm: int, i_pr: int, n_ig: int, n_u: int) -> tuple:
        """The record fields after ``trial`` of one solved outcome."""
        eps_erm, eps_ig, eps_u = n_e / m, n_ig / m, n_u / m
        b_e = erm_bound(eps_erm, rf_d)
        b_p = pr_bound(eps_ig, eps_u, rf_star, rf_aux)
        te_erm = true_errors[i_erm]
        te_pr = true_errors[i_pr]
        suff = (
            sufficiency(eps_erm, eps_u, rf_d, rf_star, rf_aux).holds
            if premise_holds(eps_erm, eps_ig, eps_u)
            else None
        )
        return (
            eps_erm, eps_ig, eps_u, te_erm, te_pr, b_e, b_p,
            te_erm <= b_e, te_pr <= b_p, suff, b_p <= b_e,
        )

    outcomes = {key: evaluate(*key) for key in dict.fromkeys(keys)}
    # tuple.__new__ skips the named tuple's generated Python __new__
    new = tuple.__new__
    records = [new(TrialRecord, (t,) + outcomes[key]) for t, key in enumerate(keys)]

    n = len(records)
    (_, eps_erm, eps_ig, eps_u, te_erm, te_pr, _, _,
     cov_erm, cov_pr, _, pr_leq) = zip(*records)
    summary = {
        "trials": config.trials,
        "effective_trials": n,
        "failed_trials": [],
        "m": config.m,
        "delta": config.delta,
        "seed": config.seed,
        "c": config.C,
        "d": d,
        "dstar": dstar,
        "d_a": d_a,
        "coverage_erm": sum(cov_erm) / n,
        "coverage_pr": sum(cov_pr) / n,
        "mean_eps_erm": math.fsum(eps_erm) / n,
        "mean_eps_ig": math.fsum(eps_ig) / n,
        "mean_eps_u": math.fsum(eps_u) / n,
        "mean_true_err_erm": math.fsum(te_erm) / n,
        "mean_true_err_pr": math.fsum(te_pr) / n,
        "pr_leq_erm_rate": sum(pr_leq) / n,
    }
    return records, summary


def run_theorem5_experiment(
    family: Theorem5Family,
    Phi_prime: HypothesisClass,
    m: int,
    trials: int,
    seed: int,
) -> dict:
    """Deviation of empirical flag-rate minimization under the hard family.

    Each trial draws m points from the family distribution (the same draw
    ``sample`` would produce), picks phi_hat minimizing the empirical flag
    rate over Phi_prime (first member on ties), and records the deviations
    of phi_hat and of phi_star, plus the largest true-minus-empirical gap
    over the whole search class, each as a float64 array over the trials.
    The reported frequencies are of the events |deviation| > eps, and
    ``mean_dev_star`` is taken with ``math.fsum``.  The family's worst-case
    sample-size constants are far below desk scale, so frequencies here
    validate the qualitative claim only; the summary states that gap.  The seed lies in [0, 2**64).
    """
    check_sizes(m, trials)
    check_seed(seed)
    eps = family.eps
    dist = family.distribution

    # 0/1 matrix: member flags support point, plus exact true rates
    flag = flag_matrix(Phi_prime, [t for t, _ in dist.support]).astype(np.float64)
    true_rates = np.array(
        [family.true_flag_rate(phi) for phi in Phi_prime.members]
    )
    star_idx = next(
        (
            i
            for i, phi in enumerate(Phi_prime.members)
            if phi.bits == family.phi_star.bits
        ),
        None,
    )
    if star_idx is None:
        raise InputError("phi_star is not a member of the supplied subclass")
    p_star = true_rates[star_idx]

    counts = _trial_counts(dist, m, seed, trials)
    dev_hat = np.empty(trials)
    dev_star = np.empty(trials)
    dev_max = np.empty(trials)
    # counts are integers below 2**53, so every product and sum is exact
    step = max(1, BLOCK_CELLS // len(flag))
    for lo in range(0, trials, step):
        emp = counts[lo : lo + step] @ flag.T / m
        rows = slice(lo, lo + len(emp))
        hat = emp.argmin(axis=1)
        dev_hat[rows] = true_rates[hat] - emp[np.arange(len(emp)), hat]
        dev_star[rows] = p_star - emp[:, star_idx]
        dev_max[rows] = (true_rates - emp).max(axis=1)

    def freq(events: np.ndarray) -> float:
        return np.count_nonzero(events) / trials

    abs_hat = np.abs(dev_hat) > eps
    abs_star = np.abs(dev_star) > eps

    return {
        "m": m,
        "trials": trials,
        "seed": seed,
        "eps": eps,
        "delta": family.delta,
        "alpha": family.alpha,
        "heavy_side": list(family.heavy_side),
        "p_star": float(p_star),
        "mean_dev_star": math.fsum(dev_star.tolist()) / trials,
        "freq_signed_hat": freq(dev_hat > eps),
        "freq_abs_hat": freq(abs_hat),
        "freq_abs_star": freq(abs_star),
        "freq_claim": freq(abs_hat | abs_star),
        "freq_existential": freq(dev_max > eps),
        "note": (
            "worst-case sample-size constants are not reachable at desk "
            "scale; frequencies validate the qualitative claim only"
        ),
    }


def persist_run(
    records: Optional[Sequence[TrialRecord]],
    summary: dict,
    config: ExperimentConfig | DeviationConfig,
    out: str,
) -> str:
    """Write a run directory: config.json, the run's outputs and manifest.json.

    A comparison's outputs are trials.csv, of ``records``, and summary.json;
    a deviation run's (``records`` None) is its report, ``summary``, as
    deviation.json.  The manifest's ``files`` names each file, and
    config.json, read as ``sim --config``, replays the run.  Returns the run
    directory.  Identical configs produce byte-identical files; nothing
    written here depends on wall-clock time.  An output of the other kind
    that an earlier run left in ``out`` is removed, so every output there is
    one the manifest lists; any other file in ``out`` is left as it is.
    """
    if records is None:
        files = {"config": "config.json", "deviation": "deviation.json"}
    else:
        files = {"config": "config.json", "trials": "trials.csv", "summary": "summary.json"}
    try:
        os.makedirs(out, exist_ok=True)
        for name in ("trials.csv", "summary.json", "deviation.json"):
            path = os.path.join(out, name)
            if name not in files.values() and os.path.lexists(path):
                os.remove(path)
        dump_json(config.to_json(), os.path.join(out, "config.json"))
        if records is not None:
            with open(
                os.path.join(out, "trials.csv"), "w", encoding="utf-8", newline=""
            ) as f:
                writer = csv.writer(f, lineterminator="\n")
                writer.writerow(TRIALS_CSV_HEADER.split(","))
                for r in sorted(records, key=lambda r: r.trial):
                    writer.writerow(r.csv_row())
        report = "deviation.json" if records is None else "summary.json"
        dump_json(summary, os.path.join(out, report))
        manifest = {
            "artifact": "priverm",
            "version": __version__,
            "seed": config.seed,
            "files": files,
        }
        dump_json(manifest, os.path.join(out, "manifest.json"))
    except OSError as exc:
        raise OSError(f"cannot write run directory {out!r}: {exc}") from exc
    return out
