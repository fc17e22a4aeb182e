"""The four benchmark workloads: what each sets up, runs and checks.

A run sets up, then repeats one fixed list of operations (a pass) as
often as ``--seconds`` allows, within each workload's ``passes``.  Each
operation counts with the median of its times over the passes, and short
operations are spread through the pass, so that the samples see the
whole run.  Timings are also scaled to a reference host speed
(``hostspeed.py``).  Every pass attempts the same operations, so the
share of failed operations is the same in every run.

Every workload reports every end-to-end metric, each from its own calls:

* ``vc_named_s``: exact VC searches of the named classes the workload's
  results rest on, one search each;
* ``vc_instance_*`` and ``vc_instances_per_s``: single ``vc_dimension``
  calls (the seeded batch in vc-exact, the named classes, repeated,
  elsewhere);
* ``trials_per_s``: Monte Carlo trials (criterion 4's random sandwich
  checks in vc-exact, ``run_comparison`` and ``run_theorem5_experiment``
  trials in the two experiments, the ``sim`` commands' trials in cli);
* ``command_p50_s`` and ``cli_total_s``: the workload's ``priverm``
  commands, each a child process, run one at a time.

Outputs of the first pass are checked against the benchmark's own oracles
outside the timed calls; later passes must repeat them.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracles
from hostspeed import HostSpeed
from priverm import constructions, core, simulate, vc

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

# criterion 6's three distributions over the d = 1 classes
COMPARISON_SUPPORTS = (
    ((0, 0, 0, 0.5), (1, 1, 0, 0.3), (2, 2, 1, 0.2)),
    ((0, 0, 0, 0.25), (0, 0, 1, 0.15), (1, 1, 1, 0.20), (2, 2, 0, 0.25), (2, 1, 1, 0.15)),
    ((0, 2, 1, 0.3), (1, 0, 0, 0.3), (2, 1, 0, 0.2), (2, 2, 1, 0.2)),
)
M_CMP, DELTA_CMP = 200, 0.05
# criterion 8's deviation experiment
HEAVY_SIDES = ((0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0))
EPS, DELTA_DEV, M_DEV = 0.1, 0.005, 50


def record(table: dict, key, raw: float, scaled: float) -> None:
    """One timing of an operation: raw seconds and seconds at reference speed."""
    table.setdefault(key, []).append((raw, scaled))


def medians(table: dict, which: int) -> list:
    return [statistics.median(t[which] for t in times) for times in table.values()]


@dataclass
class Tally:
    """Every operation's times over the passes, and the run's counts."""

    setup_s: list = field(default_factory=list)
    named: dict = field(default_factory=dict)
    vc: dict = field(default_factory=dict)
    trial_s: dict = field(default_factory=dict)
    trial_n: dict = field(default_factory=dict)
    commands: dict = field(default_factory=dict)
    startup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def trial(self, key, n: int, raw: float, scaled: float) -> None:
        record(self.trial_s, key, raw, scaled)
        self.trial_n[key] = n

    def metrics(self, which: int = 1) -> dict:
        """Timings at reference speed (``which=1``) or raw (``which=0``).

        Each operation counts with the median of its times over the passes.
        """
        vc_s = medians(self.vc, which)
        cmd_s = medians(self.commands, which)
        return {
            "setup_s": statistics.median(s[which] for s in self.setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "vc_named_s": sum(medians(self.named, which)),
            "vc_instances_per_s": len(vc_s) / sum(vc_s),
            "vc_instance_p50_ms": statistics.median(vc_s) * 1000.0,
            "vc_instance_p90_ms": statistics.quantiles(vc_s, n=10)[8] * 1000.0,
            "trials_per_s": sum(self.trial_n.values()) / sum(medians(self.trial_s, which)),
            "command_p50_s": statistics.median(cmd_s),
            "cli_total_s": sum(cmd_s),
        }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Cmd:
    rc: int
    out: str
    err: str


class Context:
    """What the workloads share: the checkout, a work directory, the tracer."""

    def __init__(self, root: Path, work: Path, target: str, tracer=None) -> None:
        self.root = root
        self.work = work
        self.target = target
        self.tracer = tracer
        self.tally = Tally()
        self.speed = HostSpeed()
        env = dict(os.environ)
        env.pop("PRIVERM_THREADS", None)
        env.pop("PERFBENCH_TRACE_OUT", None)
        env["PYTHONPATH"] = str(root / "src")
        self.env = env
        self._n_cmd = 0

    def path(self, name: str) -> str:
        return str(self.work / name)

    def vc_call(self, cls, key):
        """One timed ``vc_dimension`` call, kept as an instance sample."""
        rep, raw, scaled = self.speed.timed(vc.vc_dimension, cls)
        record(self.tally.vc, key, raw, scaled)
        self.tally.attempted += 1
        return rep, raw, scaled

    def command(self, key, *argv: str) -> Cmd:
        """Run ``priverm argv`` as a child process and wait for it to end."""
        env = self.env
        trace_file = None
        if self.tracer is not None:
            self._n_cmd += 1
            trace_file = self.work / f"cmd-trace-{self._n_cmd}.json"
            env = {**env, "PERFBENCH_TRACE_OUT": str(trace_file)}
        proc, wall, scaled = self.speed.timed_child(
            subprocess.run,
            [sys.executable, str(LAUNCHER), self.target, *argv],
            cwd=self.root, env=env, capture_output=True, text=True, timeout=170,
        )
        record(self.tally.commands, key, wall, scaled)
        self.tally.attempted += 1
        if trace_file is not None:
            with open(trace_file, encoding="utf-8") as f:
                data = json.load(f)
            trace_file.unlink()
            self.tracer.absorb(data["spans"], data["counts"])
            self.tally.startup_s.append(wall - data["main_s"])
        return Cmd(proc.returncode, proc.stdout, proc.stderr)


# --- shared helpers ---------------------------------------------------------


def bits(cls) -> list[tuple[int, ...]]:
    return [h.bits for h in cls.members]


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def class_json(cls) -> dict:
    return {
        "domain_size": cls.domain.size,
        "hypotheses": ["".join(map(str, b)) for b in bits(cls)],
    }


def support_json(support) -> dict:
    return {"support": [{"x": x, "xstar": xs, "y": y, "p": p} for x, xs, y, p in support]}


def make_class(patterns, n: int, label: str):
    return core.HypothesisClass.from_patterns(core.FiniteDomain(n, label), patterns)


def distribution(support) -> core.FiniteDistribution:
    return core.FiniteDistribution(
        tuple((core.Triple(x, xs, y), p) for x, xs, y, p in support)
    )


def random_patterns(rng: random.Random, n: int, k: int) -> list:
    return sorted({tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k)})


def rand_class_with_vc(rng: random.Random, want: int, n: int, k: int) -> list:
    """Criterion 4's rejection sampler: k random patterns on n points, kept
    when the oracle gives VC ``want``."""
    while True:
        pats = random_patterns(rng, n, k)
        if oracles.vc_oracle(pats, n)[0] == want:
            return pats


def check_report(t: Tally, cls, rep, label: str) -> None:
    """Exact, sorted witness of size vc, shattered under the oracle's projection."""
    w = tuple(rep.witness)
    t.check(rep.exact, f"{label}: report not exact")
    t.check(list(w) == sorted(w) and len(w) == rep.vc, f"{label}: witness {w}, vc {rep.vc}")
    t.check(oracles.shatters(bits(cls), w), f"{label}: witness {w} not shattered")


def check_against_oracle(t: Tally, cls, rep, label: str) -> None:
    want = oracles.vc_oracle(bits(cls), cls.domain.size)
    t.check((rep.vc, tuple(rep.witness)) == want, f"{label}: {rep.vc, rep.witness} != oracle {want}")
    t.check(rep.exact, f"{label}: report not exact")


def check_vc_output(t: Tally, rep: dict, cls, want: tuple, want_levels=None) -> None:
    """The ``vc`` command's JSON: the expected answer, exact, and sane ``levels``
    (equal to the oracle's counts of shattered sets when those are given)."""
    n = cls.domain.size
    levels = rep["levels"]
    if want_levels is not None:
        t.check(levels == want_levels, f"levels {levels} != oracle {want_levels}")
    t.check((rep["vc"], tuple(rep["witness"])) == want, f"vc output {rep['vc'], rep['witness']} != {want}")
    t.check(rep["exact"] is True, "vc output not exact")
    t.check(oracles.shatters(bits(cls), rep["witness"]), "vc output witness not shattered")
    t.check(levels[0] == 1 and len(levels) == rep["vc"] + 1, f"levels {levels}")
    t.check(all(c <= math.comb(n, k) for k, c in enumerate(levels)), "levels[k] > C(n, k)")
    t.check(sum(levels) >= len(cls), "sum of levels below |class| (Sauer-Shelah-Pajor)")


def named_round(ctx: Context, st: dict, r: int, first: bool) -> None:
    """Search each named class once; every call is also an instance sample.

    Rounds are spread between the workload's other operations so that the
    samples see the whole run, not one stretch of it.
    """
    for c, cls in enumerate(st["named"]):
        rep, raw, scaled = ctx.vc_call(cls, ("named", c, r))
        record(ctx.tally.named, c, raw, scaled)
        if first and r == 0:
            check_against_oracle(ctx.tally, cls, rep, f"named class of {len(cls)} members")


def exact_errors(H, support) -> set:
    """Exact true error of every member, summed in support order."""
    out = set()
    for h in H:
        total = 0.0
        for x, _, y, p in support:
            if h[x] != y:
                total += p
        out.add(total)
    return out


def count_of(rate: float, m: int) -> int:
    """The integer count behind a rate k/m, or -1 if there is none."""
    n = round(rate * m)
    return n if n / m == rate else -1


# --- workloads ----------------------------------------------------------------


def pattern_count(want: int, i: int) -> int:
    """The i-th of criterion 4's pattern counts, 2^want .. 16 on 4 points, in turn."""
    low = 2**want
    return low + i % (17 - low)


class VcExact:
    """Exact VC search: named instances, then a seeded batch of classes.

    The aux batch uses criterion 4's generator (d, d* in {2, 3}) with the
    domain fixed at 4 points, one instance of each (d, d*) per group, and
    the pattern counts taken in turn rather than drawn.  Over the
    generator's full range (4 to 6 points, drawn counts) one search takes
    8 ms to 4 s, and 25-instance batches took 4.6 s to 12.5 s between
    seeds: too few fit in a run for a steady figure.
    """

    name = "vc-exact"
    passes = 3
    groups = 28  # each: 4 random aux classes and 2 small random classes

    def setup(self, ctx: Context, seed: int) -> dict:
        H2, P2 = constructions.construct_theorem1(2)
        H3, P3 = constructions.construct_theorem1(3)
        st = {
            "F2": vc.build_f_class(H2, P2),
            "A22": vc.build_aux_class(H2, P2),
            "F3": vc.build_f_class(H3, P3),
            "diag": [core.product_index(i, i, 0, P3.domain.size) for i in range(9)],
            "named_out": {},
        }
        rng = random.Random(seed)
        batch = []
        for g in range(self.groups):
            for d, ds in ((2, 2), (2, 3), (3, 2), (3, 3)):
                H = make_class(rand_class_with_vc(rng, d, 4, pattern_count(d, g)), 4, "X")
                P = make_class(rand_class_with_vc(rng, ds, 4, pattern_count(ds, 3 * g + 1)), 4, "X*")
                batch.append(((d, ds), vc.build_aux_class(H, P)))
            for _ in range(2):
                n = rng.randint(6, 10)
                batch.append((None, make_class(random_patterns(rng, n, rng.randint(8, 40)), n, "X")))
        st["batch"] = batch
        # `priverm vc` on the first group's classes
        st["files"] = []
        for i in range(6):
            st["files"].append((i, ctx.path(f"aux{i}.json")))
            write_json(st["files"][-1][1], class_json(batch[i][1]))
        return st

    def run_pass(self, ctx: Context, st: dict, first: bool) -> None:
        t = ctx.tally
        batch = st["batch"]
        # the named searches and the commands are spread through the batch
        named = {
            0: ("F(2)", vc.vc_dimension, (st["F2"],)),
            len(batch) // 2: ("aux(2,2)", vc.vc_dimension, (st["A22"],)),
            len(batch) - 1: ("diagonal of F(3)", vc.is_shattered, (st["F3"], st["diag"])),
        }
        command_every = len(batch) // len(st["files"])
        reports = []
        for i, (dims, cls) in enumerate(batch):
            if i in named:
                self.named(ctx, st, *named[i])
            rep, raw, scaled = ctx.vc_call(cls, i)
            reports.append(rep)
            if dims is not None:
                t.trial(i, 1, raw, scaled)
                lo, hi = oracles.d_a_range(*dims)
                t.check(lo <= rep.vc <= hi, f"aux d_a={rep.vc} outside [{lo}, {hi}] for {dims}")
                if first:
                    check_report(t, cls, rep, f"aux {dims} #{i}")
            elif first:
                check_against_oracle(t, cls, rep, f"small class #{i}")
            if i % command_every == command_every - 1:
                self.command(ctx, st, i // command_every, reports, first)

    def named(self, ctx: Context, st: dict, key: str, fn, args) -> None:
        t = ctx.tally
        out, raw, scaled = ctx.speed.timed(fn, *args)
        record(t.named, key, raw, scaled)
        t.attempted += 1
        st["named_out"].setdefault(key, out)
        t.check(out == st["named_out"][key], f"{key} differs between passes")

    def command(self, ctx: Context, st: dict, j: int, reports: list, first: bool) -> None:
        """``priverm vc`` on the class file of batch entry i, searched already."""
        t = ctx.tally
        i, path = st["files"][j]
        cmd = ctx.command(i, "vc", path)
        if t.check(cmd.rc == 0, f"vc command exit {cmd.rc}: {cmd.err[-300:]}") and first:
            want = (reports[i].vc, tuple(reports[i].witness))
            check_vc_output(t, json.loads(cmd.out), st["batch"][i][1], want)

    def finish(self, ctx: Context, st: dict) -> None:
        t = ctx.tally
        out = st["named_out"]
        t.check(out["F(2)"].vc == 6, f"VC(F) at d=2 is {out['F(2)'].vc}, want 3d = 6")
        check_report(t, st["F2"], out["F(2)"], "F(2)")
        lo, hi = oracles.d_a_range(2, 2)
        t.check(lo <= out["aux(2,2)"].vc <= hi, f"aux(2,2) d_a={out['aux(2,2)'].vc} outside [{lo}, {hi}]")
        check_report(t, st["A22"], out["aux(2,2)"], "aux(2,2)")
        t.check(out["diagonal of F(3)"] and oracles.shatters(bits(st["F3"]), st["diag"]),
                "the diagonal of F(3) is shattered")


class Comparison:
    """``run_comparison`` in criterion 6's shape, and the same through ``sim``."""

    name = "comparison"
    passes = 4
    configs_per_dist = 10
    trials = 300
    oracle_trials = 3

    def setup(self, ctx: Context, seed: int) -> dict:
        H, Phi = constructions.construct_theorem1(1)
        rng = random.Random(seed)
        configs, commands = [], []
        for d_i, support in enumerate(COMPARISON_SUPPORTS):
            dist = distribution(support)
            for _ in range(self.configs_per_dist):
                configs.append(simulate.ExperimentConfig(
                    distribution=dist, H=H, Phi=Phi, m=M_CMP, trials=self.trials,
                    delta=DELTA_CMP, seed=rng.getrandbits(32),
                ))
            for c in range(2):
                path = ctx.path(f"comparison{d_i}-{c}.json")
                write_json(path, {
                    "distribution": support_json(support), "h_class": class_json(H),
                    "phi_class": class_json(Phi), "m": M_CMP, "trials": self.trials,
                    "delta": DELTA_CMP, "seed": rng.getrandbits(32),
                })
                commands.append(path)
        return {
            "named": [H, Phi, vc.build_aux_class(H, Phi)], "configs": configs,
            "commands": commands, "rng": rng, "results": {}, "outputs": {},
        }

    def run_pass(self, ctx: Context, st: dict, first: bool) -> None:
        t = ctx.tally
        for i, cfg in enumerate(st["configs"]):
            for r in range(4 * i, 4 * i + 4):
                named_round(ctx, st, r, first)
            (records, summary), raw, scaled = ctx.speed.timed(simulate.run_comparison, cfg)
            t.trial(i, cfg.trials, raw, scaled)
            t.attempted += cfg.trials
            t.failed += len(summary["failed_trials"])
            st["results"].setdefault(i, (records, summary))
            t.check(records == st["results"][i][0], f"config {i} differs between passes")
            if i % (self.configs_per_dist // 2) == 0:
                self.command(ctx, st, i // (self.configs_per_dist // 2))

    def command(self, ctx: Context, st: dict, i: int) -> None:
        t = ctx.tally
        cmd = ctx.command(i, "sim", "--config", st["commands"][i])
        if t.check(cmd.rc == 0, f"sim exit {cmd.rc}: {cmd.err[-300:]}"):
            st["outputs"].setdefault(i, cmd.out)
            t.check(cmd.out == st["outputs"][i], f"sim {i} output differs between passes")

    def finish(self, ctx: Context, st: dict) -> None:
        t = ctx.tally
        H, Phi = bits(st["named"][0]), bits(st["named"][1])
        dims = tuple(oracles.vc_oracle(bits(c), c.domain.size)[0] for c in st["named"])
        covered: dict[int, list] = {}
        for i, cfg in enumerate(st["configs"]):
            records, summary = st["results"][i]
            check_comparison(t, cfg, records, summary, H, dims, covered)
            for trial in st["rng"].sample(range(cfg.trials), self.oracle_trials):
                check_trial_oracle(t, cfg, records[trial], H, Phi)
        for d_i, flags in covered.items():
            n = len(flags)
            erm = sum(a for a, _ in flags) / n
            pr = sum(b for _, b in flags) / n
            t.check(erm >= 0.95 - 3 * math.sqrt(0.95 * 0.05 / n), f"coverage_erm {erm} on distribution {d_i}")
            t.check(pr >= 0.90 - 3 * math.sqrt(0.90 * 0.10 / n), f"coverage_pr {pr} on distribution {d_i}")
        for out in st["outputs"].values():
            s = json.loads(out)
            t.check(s["effective_trials"] == self.trials and not s["failed_trials"], "sim trials failed")
            t.check((s["d"], s["dstar"], s["d_a"]) == dims, f"sim dimensions {s['d'], s['dstar'], s['d_a']}")


def check_comparison(t: Tally, cfg, records, summary, H, dims, covered) -> None:
    d, dstar, d_a = dims
    support = tuple((tr.x, tr.xstar, tr.y, p) for tr, p in cfg.distribution.support)
    errors = exact_errors(H, support)
    t.check(len(records) == cfg.trials and not summary["failed_trials"], "trials failed")
    t.check((summary["d"], summary["dstar"], summary["d_a"]) == dims, f"dimensions in {summary}")
    flags = covered.setdefault(COMPARISON_SUPPORTS.index(support), [])
    m, delta = cfg.m, cfg.delta
    for rec in records:
        n_erm, n_ig, n_u = (count_of(e, m) for e in (rec.eps_erm, rec.eps_ig, rec.eps_u))
        t.check(min(n_erm, n_ig, n_u) >= 0 and n_erm <= n_ig + n_u, f"eps_erm > eps_ig + eps_u in {rec}")
        b_e = oracles.bound_erm(rec.eps_erm, d, m, delta)
        b_p = oracles.bound_pr(rec.eps_ig, rec.eps_u, dstar, d_a, m, delta)
        t.check(math.isclose(rec.b_erm, b_e, rel_tol=1e-12), f"b_erm {rec.b_erm} != {b_e}")
        t.check(math.isclose(rec.b_pr, b_p, rel_tol=1e-12), f"b_pr {rec.b_pr} != {b_p}")
        t.check(rec.true_err_erm in errors and rec.true_err_pr in errors, f"true errors of {rec}")
        t.check(rec.covered_erm == (rec.true_err_erm <= rec.b_erm), "covered_erm flag")
        t.check(rec.covered_pr == (rec.true_err_pr <= rec.b_pr), "covered_pr flag")
        flags.append((rec.covered_erm, rec.covered_pr))


def check_trial_oracle(t: Tally, cfg, rec, H, Phi) -> None:
    """Re-solve one trial's drawn sample with the brute-force ERM oracles."""
    s = simulate.sample(cfg.distribution, cfg.m, simulate.mix_seed(cfg.seed, rec.trial))
    triples = [(tr.x, tr.xstar, tr.y) for tr in s.triples]
    n_err, _ = oracles.erm_standard_oracle(H, triples)
    _, n_ig, _, _, n_u = oracles.erm_privileged_oracle(H, Phi, triples, Fraction(str(cfg.C)))
    m = cfg.m
    t.check(
        (rec.eps_erm, rec.eps_ig, rec.eps_u) == (n_err / m, n_ig / m, n_u / m),
        f"trial {rec.trial} of seed {cfg.seed}: eps differ from the ERM oracle",
    )


class Deviation:
    """``run_theorem5_experiment`` in criterion 8's shape, and the same through ``sim``."""

    name = "deviation"
    passes = 5
    seeds_per_search = 4
    trials = 2000
    recount = 40

    def setup(self, ctx: Context, seed: int) -> dict:
        Phi = constructions.full_class(8, "X*")
        rng = random.Random(seed)
        experiments = []
        for heavy in HEAVY_SIDES:
            family, _ = constructions.construct_theorem5_family(
                Phi, eps=EPS, delta=DELTA_DEV, heavy_side=heavy
            )
            prime = constructions.phi_prime_subclass(Phi, family.pairs)
            for search in (prime, Phi):
                for _ in range(self.seeds_per_search):
                    experiments.append((heavy, family, search, rng.getrandbits(32)))
        commands = []
        for i in range(8):
            cfg = {
                "phi_class": class_json(Phi), "eps": EPS, "delta": DELTA_DEV, "m": M_DEV,
                "trials": self.trials, "heavy_side": list(HEAVY_SIDES[rng.randrange(4)]),
                "seed": rng.getrandbits(32),
            }
            write_json(ctx.path(f"deviation{i}.json"), cfg)
            commands.append((ctx.path(f"deviation{i}.json"), cfg))
        primes = [search for _, _, search, _ in experiments[::2 * self.seeds_per_search]]
        return {"named": [Phi, *primes], "experiments": experiments,
                "commands": commands, "reports": {}, "outputs": {}}

    def run_pass(self, ctx: Context, st: dict, first: bool) -> None:
        t = ctx.tally
        for i, (_, family, search, seed) in enumerate(st["experiments"]):
            for r in range(2 * i, 2 * i + 2):
                named_round(ctx, st, r, first)
            rep, raw, scaled = ctx.speed.timed(
                simulate.run_theorem5_experiment, family, search, m=M_DEV, trials=self.trials, seed=seed
            )
            t.trial(i, self.trials, raw, scaled)
            t.attempted += self.trials
            st["reports"].setdefault(i, rep)
            t.check(rep == st["reports"][i], f"experiment {i} differs between passes")
            if i % 4 == 0:
                self.command(ctx, st, i // 4)

    def command(self, ctx: Context, st: dict, i: int) -> None:
        t = ctx.tally
        cmd = ctx.command(i, "sim", "--kind", "deviation", "--config", st["commands"][i][0])
        if t.check(cmd.rc == 0, f"sim deviation exit {cmd.rc}: {cmd.err[-300:]}"):
            st["outputs"].setdefault(i, cmd.out)
            t.check(cmd.out == st["outputs"][i], f"sim deviation {i} differs between passes")

    def finish(self, ctx: Context, st: dict) -> None:
        t = ctx.tally
        alpha = 8 * EPS / (1 - 8 * DELTA_DEV)
        full = st["named"][0]
        claims: dict[tuple, list] = {}
        for i, (heavy, family, search, seed) in enumerate(st["experiments"]):
            rep = st["reports"][i]
            t.check(family.alpha == alpha and rep["alpha"] == alpha, f"alpha {family.alpha} != {alpha}")
            star = sum(p for tr, p in family.distribution.support if family.phi_star.bits[tr.xstar])
            t.check(abs(star - (1 - alpha) / 2) <= 1e-12, f"phi* flag rate {star} != (1 - alpha)/2")
            if search is not full:
                claims.setdefault(heavy, []).append(rep["freq_claim"])
            if i % self.seeds_per_search == 0:
                prefix = simulate.run_theorem5_experiment(
                    family, search, m=M_DEV, trials=self.recount, seed=seed
                )
                check_recount(t, family, search, seed, self.recount, prefix)
        rates = {h: statistics.fmean(v) for h, v in claims.items()}
        t.check(max(rates.values()) > DELTA_DEV, f"no heavy side has freq_claim > delta: {rates}")
        for i, (_, cfg) in enumerate(st["commands"]):
            rep = json.loads(st["outputs"][i])
            t.check(rep["trials"] == cfg["trials"] and rep["alpha"] == alpha
                    and rep["heavy_side"] == cfg["heavy_side"], f"sim deviation report {i}")


def check_recount(t: Tally, family, search, seed: int, trials: int, rep: dict) -> None:
    """Recount the deviation events of the first trials from the drawn samples."""
    members = bits(search)
    support = [(tr.xstar, p) for tr, p in family.distribution.support]
    true = []
    for phi in members:
        total = 0.0
        for xs, p in support:
            if phi[xs]:
                total += p
        true.append(total)
    star = members.index(family.phi_star.bits)
    eps = family.eps
    events = dict.fromkeys(("signed_hat", "abs_hat", "abs_star", "claim", "existential"), 0)
    for trial in range(trials):
        s = simulate.sample(family.distribution, M_DEV, simulate.mix_seed(seed, trial))
        emp = [sum(phi[tr.xstar] for tr in s.triples) / M_DEV for phi in members]
        hat = emp.index(min(emp))
        dev_hat = true[hat] - emp[hat]
        dev_star = true[star] - emp[star]
        events["signed_hat"] += dev_hat > eps
        events["abs_hat"] += abs(dev_hat) > eps
        events["abs_star"] += abs(dev_star) > eps
        events["claim"] += abs(dev_hat) > eps or abs(dev_star) > eps
        events["existential"] += max(a - b for a, b in zip(true, emp)) > eps
    for key, n in events.items():
        got = rep[f"freq_{key}"]
        t.check(got == n / trials, f"freq_{key} {got} != recount {n / trials} (seed {seed})")


class Cli:
    """A fixed script of ``priverm`` commands; two of them are known faults."""

    name = "cli"
    passes = 5
    sim_trials = 300
    dev_trials = 1000

    def setup(self, ctx: Context, seed: int) -> dict:
        rng = random.Random(seed)
        p = ctx.path
        H1, P1 = constructions.construct_theorem1(1)
        st = {"named": [H1, P1, vc.build_f_class(H1, P1)], "outputs": {}}
        n = rng.randint(8, 10)
        st["vc_class"] = make_class(random_patterns(rng, n, rng.randint(24, 48)), n, "X")
        write_json(p("vc.json"), class_json(st["vc_class"]))
        # |H| * |Phi| = 72 * 64 pairs, above erm.PAIR_SCAN_LIMIT
        every = [tuple((v >> i) & 1 for i in range(8)) for v in range(256)]
        H = make_class(sorted(rng.sample(every, 72)), 8, "X")
        P = make_class(sorted(rng.sample(every, 64)), 8, "X*")
        sample = [(rng.randrange(8), rng.randrange(8), rng.randrange(2)) for _ in range(24)]
        st["erm"] = (H, P, sample)
        write_json(p("erm_h.json"), class_json(H))
        write_json(p("erm_phi.json"), class_json(P))
        write_json(p("erm_sample.json"), {"triples": [{"x": x, "xstar": xs, "y": y} for x, xs, y in sample]})
        write_json(p("sim.json"), {
            "distribution": support_json(COMPARISON_SUPPORTS[rng.randrange(3)]),
            "h_class": class_json(H1), "phi_class": class_json(P1), "m": M_CMP,
            "trials": self.sim_trials, "delta": DELTA_CMP, "seed": rng.getrandbits(32),
        })
        write_json(p("deviation.json"), {
            "phi_class": class_json(constructions.full_class(8, "X*")), "eps": EPS,
            "delta": DELTA_DEV, "m": M_DEV, "trials": self.dev_trials,
            "heavy_side": list(HEAVY_SIDES[rng.randrange(4)]), "seed": rng.getrandbits(32),
        })
        m = rng.randint(50, 500)
        n_ig, n_u = rng.randint(0, m // 4), rng.randint(0, m // 4)
        b = {
            "m": m, "delta": rng.choice((0.01, 0.05, 0.1)), "d": rng.randint(1, 4),
            "dstar": rng.randint(1, 4), "d_a": rng.randint(1, 12),
            "eps_erm": (n_ig + n_u) / m, "eps_ig": n_ig / m, "eps_u": n_u / m,
        }
        st["bounds"] = b
        # the two known faults; their inputs do not depend on the seed
        write_json(p("fault_h.json"), class_json(H1))
        write_json(p("fault_sample.json"), {"triples": [{"x": 7, "xstar": 0, "y": 0}]})
        write_json(p("fault_sim.json"), {
            "distribution": support_json(COMPARISON_SUPPORTS[0]), "h_class": class_json(H1),
            "phi_class": class_json(P1), "m": M_CMP, "trials": 4, "delta": 1.5, "seed": 15,
        })
        st["script"] = [
            ("claims", ["verify", "--suite", "claims", "--d", "1"]),
            ("theorem1", ["verify", "--suite", "theorem1", "--d", "1"]),
            ("lemma2", ["verify", "--suite", "lemma2", "--d", "2", "--dstar", "2"]),
            ("vc", ["vc", p("vc.json")]),
            ("erm", ["erm", "--h-class", p("erm_h.json"), "--phi-class", p("erm_phi.json"),
                     "--sample", p("erm_sample.json")]),
            ("sim", ["--output-dir", p("run_a"), "sim", "--config", p("sim.json")]),
            ("replay", None),  # built from run_a's manifest when its turn comes
            ("deviation", ["sim", "--kind", "deviation", "--config", p("deviation.json")]),
            ("bounds", ["bounds"] + [a for k in ("m", "delta", "d", "dstar", "d_a", "eps_erm", "eps_ig", "eps_u")
                                     for a in (f"--{k.replace('_', '-')}", repr(b[k]))]),
            ("fault_erm", ["erm", "--h-class", p("fault_h.json"), "--sample", p("fault_sample.json")]),
            ("fault_sim", ["--output-dir", p("run_fault"), "sim", "--config", p("fault_sim.json")]),
        ]
        return st

    def run_pass(self, ctx: Context, st: dict, first: bool) -> None:
        t = ctx.tally
        for i, (label, argv) in enumerate(st["script"]):
            for r in range(4 * i, 4 * i + 4):
                named_round(ctx, st, r, first)
            if label == "replay":
                run_a = Path(ctx.path("run_a"))
                manifest = json.loads((run_a / "manifest.json").read_text(encoding="utf-8"))
                config = str(run_a / manifest["files"]["config"])
                argv = ["--output-dir", ctx.path("run_b"), "sim", "--config", config]
            cmd = ctx.command(label, *argv)
            if label.startswith("fault_"):
                # wanted: exit 2 (bad input) and no traceback
                if cmd.rc != 2 or "Traceback" in cmd.err:
                    t.failed += 1
                continue
            if t.check(cmd.rc == 0, f"{label} exit {cmd.rc}: {cmd.err[-300:]}"):
                st["outputs"].setdefault(label, cmd.out)
                t.check(cmd.out == st["outputs"][label], f"{label} output differs between passes")
                if first:
                    self.check_output(ctx, st, label, cmd.out)
        # the trials of the three sim commands, over the time of those commands
        last = [t.commands[k][-1] for k in ("sim", "replay", "deviation")]
        t.trial("sim", 2 * self.sim_trials + self.dev_trials,
                sum(raw for raw, _ in last), sum(scaled for _, scaled in last))

    def check_output(self, ctx: Context, st: dict, label: str, out: str) -> None:
        t = ctx.tally
        if label in ("claims", "theorem1", "lemma2"):
            t.check(out.rstrip().endswith("PASS"), f"verify {label} does not end in PASS")
            if label == "claims":
                t.check("REFUTED" in out, "verify claims does not print REFUTED")
        elif label == "vc":
            cls = st["vc_class"]
            n = cls.domain.size
            check_vc_output(t, json.loads(out), cls, oracles.vc_oracle(bits(cls), n),
                            oracles.shattered_counts(bits(cls), n))
        elif label == "erm":
            H, P, sample = st["erm"]
            obj, n_ig, i, j, n_u = oracles.erm_privileged_oracle(bits(H), bits(P), sample, Fraction(1))
            m = len(sample)
            want = {
                "h": "".join(map(str, H[i].bits)), "phi": "".join(map(str, P[j].bits)),
                "objective": float(obj / m), "ignored_weight": n_ig / m,
                "unexplained_error": n_u / m,
            }
            t.check(json.loads(out) == want, f"erm output {out} != oracle {want}")
        elif label == "replay":
            a = Path(ctx.path("run_a"), "trials.csv").read_bytes()
            b = Path(ctx.path("run_b"), "trials.csv").read_bytes()
            t.check(a == b and a.count(b"\n") == self.sim_trials + 1, "replayed trials.csv differs")
        elif label == "deviation":
            rep = json.loads(out)
            t.check(rep["trials"] == self.dev_trials and rep["alpha"] == 8 * EPS / (1 - 8 * DELTA_DEV),
                    "deviation report")
        elif label == "bounds":
            b = st["bounds"]
            rep = json.loads(out)
            want_erm = oracles.bound_erm(b["eps_erm"], b["d"], b["m"], b["delta"])
            want_pr = oracles.bound_pr(b["eps_ig"], b["eps_u"], b["dstar"], b["d_a"], b["m"], b["delta"])
            t.check(math.isclose(rep["b_erm"], want_erm, rel_tol=1e-12), f"b_erm {rep['b_erm']} != {want_erm}")
            t.check(math.isclose(rep["b_pr"], want_pr, rel_tol=1e-12), f"b_pr {rep['b_pr']} != {want_pr}")

    def finish(self, ctx: Context, st: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (VcExact(), Comparison(), Deviation(), Cli())}
