"""Seeded Monte Carlo experiments over finite-support distributions.

Per-trial randomness comes from one master seed: trial t uses a 64-bit
splitmix-style hash of (seed, t), so each trial's draw is fixed however the
trials are computed.  Trial t's uniforms are exactly those of
``np.random.default_rng(mix_seed(seed, t))``, but no generator is built per
trial: a block of trial seeds is mixed as one uint64 array, NumPy's
SeedSequence hash and PCG64's seeding run over the block at once, and one
generator is set to each trial's state in turn.  ``sample`` takes the same
path with one seed.  A drawn sample enters both experiments only as its
count vector over the support, counted by thresholds: a trial's draws
below each cumulative total of the support.  The comparison experiment
hands all trials' counts to the ERM count kernel at once and evaluates the
bounds once per distinct solved outcome; the deviation experiment takes
every trial's empirical flag rates from one matrix product and counts its
events over arrays.  True errors are computed exactly from the probability
table, never estimated; the only randomness in any record is the sample
itself.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    PREMISE_TOLERANCE,
    BoundInputs,
    bound_erm,
    bound_pr,
    sufficient_condition,
)
from .constructions import Theorem5Family
from .core import (
    DomainMismatchError,
    FiniteDistribution,
    HypothesisClass,
    TripleSample,
    class_to_json,
    distribution_to_json,
    dump_json,
    exact_true_error,
)
from .erm import BLOCK_CELLS, error_matrix, flag_matrix, positive_cost, solve_counts
from .vc import build_aux_class, vc_dimension

TRIALS_CSV_HEADER = (
    "trial,eps_erm,eps_ig,eps_u,true_err_erm,true_err_pr,"
    "b_erm,b_pr,covered_erm,covered_pr"
)

_MASK64 = (1 << 64) - 1

# NumPy's SeedSequence (a pool of four 32-bit words) and PCG64's seeding
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

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


def _check_seed(seed: int) -> int:
    """The seed as an int, if it lies in [0, 2**64); else ``ValueError``."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


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


def _pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``np.random.default_rng(s)`` for each seed s.

    Seeds lie in [0, 2**64).  SeedSequence hashes a seed's low and high
    32-bit words into a pool of four words (a seed below 2**32 has one
    word, and the missing word hashes as 0 would), then expands the pool
    into four 64-bit words: PCG64's initial state and its stream.  The hash
    constants advance alike for every seed, so each step here is one uint32
    array operation over all seeds; only PCG64's 128-bit set-up runs per
    seed, on Python ints.
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
    # 32-bit words pair up little-endian into PCG64's four 64-bit seed words
    seed64 = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist()
    states = []
    for s0, s1, i0, i1 in seed64:
        inc = (i0 << 65 | i1 << 1 | 1) & _MASK128
        states.append((((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


def _uniform_rows(seeds: Sequence[int], m: int) -> np.ndarray:
    """len(seeds)×m uniforms: row r equals ``default_rng(seeds[r]).random(m)``.

    One generator is reused; each row sets its PCG64 state and draws.
    Callers ask for at most 2**16 rows, so an array too big for numpy means
    that m is too large.
    """
    try:
        out = np.empty((len(seeds), m))
    except ValueError as exc:
        raise ValueError(f"m is too large for an array: {exc}") from None
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for row, (state, inc) in zip(out, _pcg64_states(seeds)):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.random(out=row)
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
        raise ValueError(f"m must be >= 0, got {m}")
    seed = _check_seed(seed)
    cum, last = _inverse_cdf(dist)
    idx = np.searchsorted(cum, _uniform_rows([seed], m)[0], side="right")
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
        raise ValueError(f"trials is too large for an array: {exc}") from None
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a comparison run depends on; the unit of reproducibility.

    Every range is checked here, once, so a run never starts on a value
    that would fail its trials: m and trials are at least 1, delta lies in
    (0, 1), C is positive and finite, and the seed lies in [0, 2**64).
    """

    distribution: FiniteDistribution
    H: HypothesisClass
    Phi: HypothesisClass
    m: int
    trials: int
    delta: float
    seed: int
    C: float = 1.0
    output_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0 < self.C < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.C}")
        _check_seed(self.seed)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "trials": self.trials,
            "delta": self.delta,
            "seed": self.seed,
            "c": self.C,
            "distribution": distribution_to_json(self.distribution),
            "h_class": class_to_json(self.H),
            "phi_class": class_to_json(self.Phi),
        }


@dataclass(frozen=True)
class TrialRecord:
    """One trial's empirical quantities, exact errors, bounds, and flags."""

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


def _check_compatible(config: ExperimentConfig) -> None:
    for t, _ in config.distribution.support:
        if t.x >= config.H.domain.size:
            raise DomainMismatchError(
                f"support x={t.x} outside H domain of size {config.H.domain.size}"
            )
        if t.xstar >= config.Phi.domain.size:
            raise DomainMismatchError(
                f"support x*={t.xstar} outside Phi domain of size "
                f"{config.Phi.domain.size}"
            )


def run_comparison(
    config: ExperimentConfig,
) -> tuple[list[TrialRecord], dict]:
    """Standard vs privileged minimization across seeded trials.

    The dimensions entering the bounds, and the exact true error of every
    member of H, are computed once from the classes themselves.  Each
    trial's sample is drawn as its count vector over the support, and one
    call of the ERM count kernel solves both minimizers for every trial.
    Every field of a record but ``trial`` is a function of the solved
    outcome (standard ERM's error count, both minimizers' indices, and the
    privileged flag and unflagged-error counts), so the bounds, the
    sufficient condition and the coverage events are evaluated once per
    distinct outcome of this call, and each trial gets its own record.
    ``config`` has checked every range, so every trial yields a record;
    the summary keeps an empty ``failed_trials`` list for its readers.
    Its means are taken with ``math.fsum``, so they are the same on every
    Python version.
    """
    _check_compatible(config)
    d = vc_dimension(config.H).vc
    dstar = vc_dimension(config.Phi).vc
    d_a = vc_dimension(build_aux_class(config.H, config.Phi)).vc

    dist, m = config.distribution, config.m
    points = [t for t, _ in dist.support]
    true_errors = [exact_true_error(h, dist) for h in config.H]
    counts = _trial_counts(dist, m, config.seed, config.trials)
    C = positive_cost(config.C)
    sol = solve_counts(
        error_matrix(config.H, points), counts, flag_matrix(config.Phi, points), C
    )
    n_erm = sol.n_err[np.arange(config.trials), sol.h_erm]
    solved = zip(
        n_erm.tolist(),
        sol.h_erm.tolist(),
        sol.h_pr.tolist(),
        sol.n_ig.tolist(),
        sol.n_u.tolist(),
    )

    def evaluate(n_e: int, i_erm: int, i_pr: int, n_ig: int, n_u: int) -> tuple:
        """The record fields after ``trial`` of one solved outcome."""
        eps_erm, eps_ig, eps_u = n_e / m, n_ig / m, n_u / m
        inputs = BoundInputs(
            m=m,
            delta=config.delta,
            d=d,
            dstar=dstar,
            d_a=d_a,
            eps_erm=eps_erm,
            eps_ig=eps_ig,
            eps_u=eps_u,
        )
        b_e = bound_erm(inputs)
        b_p = bound_pr(inputs)
        te_erm = true_errors[i_erm]
        te_pr = true_errors[i_pr]
        gap = eps_erm - (eps_ig + eps_u)
        suff = (
            sufficient_condition(inputs).holds
            if abs(gap) <= PREMISE_TOLERANCE
            else None
        )
        return (
            eps_erm, eps_ig, eps_u, te_erm, te_pr, b_e, b_p,
            te_erm <= b_e, te_pr <= b_p, suff, b_p <= b_e,
        )

    outcomes: dict[tuple, tuple] = {}
    records: list[TrialRecord] = []
    for t, key in enumerate(solved):
        fields = outcomes.get(key)
        if fields is None:
            fields = outcomes[key] = evaluate(*key)
        records.append(TrialRecord(t, *fields))

    n = len(records)
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
        "coverage_erm": sum(r.covered_erm for r in records) / n,
        "coverage_pr": sum(r.covered_pr for r in records) / n,
        "mean_eps_erm": math.fsum(r.eps_erm for r in records) / n,
        "mean_eps_ig": math.fsum(r.eps_ig for r in records) / n,
        "mean_eps_u": math.fsum(r.eps_u for r in records) / n,
        "mean_true_err_erm": math.fsum(r.true_err_erm for r in records) / n,
        "mean_true_err_pr": math.fsum(r.true_err_pr for r in records) / n,
        "pr_leq_erm_rate": sum(r.pr_leq_erm for r in records) / n,
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
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_seed(seed)
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
        raise ValueError("phi_star is not a member of the supplied subclass")
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
    records: Sequence[TrialRecord], summary: dict, config: ExperimentConfig
) -> str:
    """Write config.json, trials.csv, summary.json, manifest.json.

    Returns the run directory.  Identical configs produce byte-identical
    trials.csv; nothing written here depends on wall-clock time.
    """
    if config.output_dir is None:
        raise ValueError("config.output_dir is required to persist a run")
    out = config.output_dir
    try:
        os.makedirs(out, exist_ok=True)
        dump_json(config.to_json(), os.path.join(out, "config.json"))
        with open(
            os.path.join(out, "trials.csv"), "w", encoding="utf-8", newline=""
        ) as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(TRIALS_CSV_HEADER.split(","))
            for r in sorted(records, key=lambda r: r.trial):
                writer.writerow(r.csv_row())
        dump_json(summary, os.path.join(out, "summary.json"))
        from priverm import __version__

        manifest = {
            "artifact": "priverm",
            "version": __version__,
            "seed": config.seed,
            "files": {
                "config": "config.json",
                "trials": "trials.csv",
                "summary": "summary.json",
            },
        }
        dump_json(manifest, os.path.join(out, "manifest.json"))
    except OSError as exc:
        raise OSError(f"cannot write run directory {out!r}: {exc}") from exc
    return out