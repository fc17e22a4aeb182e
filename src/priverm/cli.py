"""Command-line front end: vc, construct, erm, bounds, sim, verify.

``verify`` has three suites, theorem1, lemma1 and lemma2; the names
claims and theorem2 run theorem1 and lemma2, whose checks state them.

Exit codes: 0 success, 2 bad input (``core.InputError``, raised by every
check of an argument or input file, or a size too large for memory) or a
usage error, 3 a ``vc`` search cut by its node budget, 4 I/O failure, 5 an
internal error (any other exception, printed as one ``internal error:
<type>: <message>`` line).  A failed verification check exits 1, also one
whose search the budget cut.  A key missing from an input file is named
with its object, as in ``missing comparison config keys: m``, and a
misspelt global flag with the value after it, as in ``unrecognized
arguments: --sead 3``.

Each command imports only the modules it runs.  This module loads ``core``
and ``vc``, which holds the ``--budget`` default and which four of the six
commands run; ``bounds``, ``constructions``, ``erm``, ``simulate`` and
``csv`` are imported inside the commands and suites that call them.  So ``vc`` loads no other
priverm module, ``bounds`` adds ``bounds``, ``construct`` and ``verify`` add
``constructions`` (lemma2 and theorem2 also ``bounds``), ``erm`` adds
``erm`` once its inputs pass, and ``sim`` adds ``simulate``, which loads
every module.  No command that runs without numpy loads the dataclass
module or ``inspect``.  Each input file's keys, and the ``bounds`` flags,
come from its type in ``core``: ``BoundInputs``, ``ExperimentConfig`` or
``DeviationConfig``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    BoundInputs,
    DeviationConfig,
    ExperimentConfig,
    InputError,
    check_erm_inputs,
    class_from_json,
    class_to_json,
    distribution_to_json,
    dump_json,
    json_text,
    load_json,
    product_index,
    product_legend,
    sample_from_json,
    strict_int,
)
from .vc import (
    DEFAULT_NODE_BUDGET,
    build_aux_class,
    build_f_class,
    count_shattered,
    is_shattered,
    union_class,
    vc_dimension,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


def _text(value) -> str:
    """One csv or table value: JSON for lists and dicts, ``str`` for scalars."""
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json_text(obj))
    elif fmt == "csv":
        import csv

        # a list or dict value is one quoted field
        keys = sorted(obj)
        rows = csv.writer(sys.stdout, lineterminator="\n")
        rows.writerow(keys)
        rows.writerow(_text(obj[k]) for k in keys)
    else:
        width = max(len(k) for k in obj)
        for k in sorted(obj):
            print(f"{k:<{width}}  {_text(obj[k])}")


def _write(payload: dict, name: str, args, fmt: str) -> None:
    """Write ``<--output-dir>/<name>.json`` and print its path, or emit to stdout."""
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        out = os.path.join(args.output_dir, f"{name}.json")
        dump_json(payload, out)
        print(out)
    else:
        _emit(payload, fmt)


def _load_class(path: str, label: str):
    return class_from_json(load_json(path), label=label)


# --- subcommands ------------------------------------------------------------


def cmd_vc(args) -> int:
    cls = _load_class(args.class_file, label="X")
    report = vc_dimension(cls, budget=args.budget)
    levels = count_shattered(cls, report.vc)
    _emit({**report.to_json(), "levels": list(levels)}, args.format)
    if not report.exact:
        print(
            "node budget exhausted before the exact answer "
            f"(nodes={report.nodes}, level={report.vc})",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK


def cmd_construct(args) -> int:
    from .constructions import (
        construct_lemma1_tight,
        construct_theorem1,
        construct_theorem5_family,
        full_class,
    )

    if args.what == "theorem1":
        H, Phi = construct_theorem1(args.d)
        payload = {
            "h_class": class_to_json(H),
            "phi_class": class_to_json(Phi),
            "legend_product": product_legend(H.domain.size, Phi.domain.size),
        }
    elif args.what == "lemma1":
        H, J = construct_lemma1_tight(args.d, 1 if args.dstar is None else args.dstar)
        payload = {
            "h_class": class_to_json(H),
            "j_class": class_to_json(J),
            "domain_size": H.domain.size,
        }
    else:  # theorem5; its smallest family is one pair, on d* = 2
        Phi = full_class(2 if args.dstar is None else args.dstar, label="X*")
        if not set(args.heavy_side or "") <= {"0", "1"}:
            raise InputError(f"--heavy-side takes only 0 and 1, got {args.heavy_side!r}")
        heavy = None if args.heavy_side is None else tuple(int(c) for c in args.heavy_side)
        family, dist = construct_theorem5_family(
            Phi, eps=args.eps, delta=args.delta, heavy_side=heavy
        )
        payload = {
            "distribution": distribution_to_json(dist),
            "alpha": family.alpha,
            "pairs": [list(p) for p in family.pairs],
            "heavy_side": list(family.heavy_side),
            "phi_star": family.phi_star.to_bitstring(),
        }
    _write(payload, args.what, args, "json")
    return EXIT_OK


def cmd_erm(args) -> int:
    H = _load_class(args.h_class, label="X")
    s = sample_from_json(load_json(args.sample))
    Phi = None if args.phi_class is None else _load_class(args.phi_class, label="X*")
    check_erm_inputs(H, s, Phi, args.c)
    # numpy-backed, so imported once every input has passed: the other
    # commands, and erm on a bad input, end without numpy
    from .erm import erm_privileged, erm_standard

    if Phi is None:
        result = erm_standard(H, s).to_json()
    else:
        result = erm_privileged(H, Phi, s, args.c).to_json()
    _emit(result, args.format)
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .bounds import (
        alpha_threshold,
        bound_erm,
        bound_pr,
        d_a_interval,
        necessary_condition,
        r_fast,
        sufficient_condition,
    )

    # the file's object, if any, with every given flag written over it
    flags = {k: getattr(args, k) for k, _, _ in BoundInputs.KEYS if getattr(args, k) is not None}
    inputs = BoundInputs.from_json(
        load_json(args.inputs) if args.inputs else {}, "bounds inputs", flags, "bounds inputs"
    )
    nec = necessary_condition(inputs) if inputs.d > 0 else None
    report = {
        "r_fast_d": r_fast(inputs.d, inputs.m, inputs.delta),
        "r_fast_dstar": r_fast(inputs.dstar, inputs.m, inputs.delta),
        "r_fast_d_a": r_fast(inputs.d_a, inputs.m, inputs.delta),
        "b_erm": bound_erm(inputs),
        "b_pr": bound_pr(inputs),
        "d_a_interval": list(d_a_interval(inputs.d, inputs.dstar)),
        "alpha_root": alpha_threshold(),
    }
    if inputs.premise_holds:
        report["sufficient"] = sufficient_condition(inputs).to_json()
    if nec is not None:
        report["necessary"] = nec.to_json()
    _emit(report, args.format)
    return EXIT_OK


def cmd_sim(args) -> int:
    # every input is checked before simulate, and with it numpy, is imported;
    # --seed wins over the file's seed
    kind = args.kind
    config = (ExperimentConfig if kind == "comparison" else DeviationConfig).from_json(
        load_json(args.config), f"{kind} config", {} if args.seed is None else {"seed": args.seed}
    )
    if kind == "comparison":
        from .simulate import persist_run, run_comparison

        records, summary = run_comparison(config)
    else:
        from .constructions import construct_theorem5_family, phi_prime_subclass

        Phi = config.Phi
        family, _ = construct_theorem5_family(
            Phi, eps=config.eps, delta=config.delta, heavy_side=config.heavy_side
        )
        search_class = phi_prime_subclass(Phi, family.pairs) if config.search == "prime" else Phi
        from .simulate import persist_run, run_theorem5_experiment

        records, summary = None, run_theorem5_experiment(
            family, search_class, m=config.m, trials=config.trials, seed=config.seed
        )
    if not args.output_dir:
        _emit(summary, args.format)
        return EXIT_OK
    out = persist_run(records, summary, config, args.output_dir)
    # a comparison prints its run directory, a deviation run its report
    print(out if records is not None else os.path.join(out, "deviation.json"))
    return EXIT_OK


# --- verification suites ----------------------------------------------------


def _checkline(name: str, ok: bool, detail: str, report=None) -> bool:
    """Print one check; a search cut by the node budget fails it, and its detail says so."""
    if report is not None and not report.exact:
        ok = False
        detail += " (lower bound: node budget exhausted)"
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _prediction(d: int, rf) -> str:
    """The additive prediction d+d* = 2d against VC(F), with its verdict.

    A lower bound refutes 2d only when it passes it; a cut search at or
    below 2d leaves the prediction undetermined.
    """
    if rf.vc > 2 * d or (rf.exact and rf.vc != 2 * d):
        verdict = "REFUTED"
    else:
        verdict = "consistent" if rf.exact else "undetermined"
    return f"additive prediction d+d* = {2 * d}; measured VC(F) = {rf.vc}; {verdict}"


def _suite_theorem1(d: int, dstar: int) -> bool:
    from .constructions import construct_theorem1

    H, Phi = construct_theorem1(d)
    rh, rp = vc_dimension(H), vc_dimension(Phi)
    F = build_f_class(H, Phi)
    rf = vc_dimension(F)
    diag = [product_index(i, i, 0, Phi.domain.size) for i in range(3 * d)]
    ok = True
    ok &= _checkline("vc_h", rh.vc == d, f"VC(H)={rh.vc}, want {d}", rh)
    ok &= _checkline("vc_phi", rp.vc == d, f"VC(Phi)={rp.vc}, want {d}", rp)
    ok &= _checkline("vc_f", rf.vc == 3 * d, f"VC(F)={rf.vc}, want {3 * d}", rf)
    ok &= _checkline(
        "diagonal_witness", is_shattered(F, diag), f"{3 * d} diagonal points"
    )
    print(_prediction(d, rf))
    return ok


def _suite_lemma1(d: int, dstar: int) -> bool:
    from .constructions import construct_lemma1_tight

    H, J = construct_lemma1_tight(d, dstar)
    ru = vc_dimension(union_class(H, J))
    rh, rj = vc_dimension(H), vc_dimension(J)
    ok = True
    ok &= _checkline("vc_h", rh.vc == d, f"VC(H)={rh.vc}, want {d}", rh)
    ok &= _checkline("vc_j", rj.vc == dstar, f"VC(J)={rj.vc}, want {dstar}", rj)
    want = d + dstar + 1
    ok &= _checkline("vc_union", ru.vc == want, f"VC(H∪J)={ru.vc}, want {want}", ru)
    return ok


def _suite_lemma2(d: int, dstar: int) -> bool:
    """d_a within ``d_a_interval``, whose upper end is Theorem 2's bound, and the
    witness where that interval's lower end is nonzero (checked with no aux class)."""
    from .bounds import d_a_interval
    from .constructions import construct_lemma2_witness, construct_theorem1

    H, _ = construct_theorem1(d)
    _, Phi = construct_theorem1(dstar)
    lower, upper = d_a_interval(d, dstar)
    ok = True
    if lower:
        witness = construct_lemma2_witness(H, Phi)
        ok &= _checkline(
            "witness_size",
            len(witness) == d + dstar - 2,
            f"{len(witness)} triples, want {d + dstar - 2}",
        )
    ra = vc_dimension(build_aux_class(H, Phi))
    ok &= _checkline(
        "d_a_sandwich",
        lower <= ra.vc <= upper,
        f"d_a={ra.vc} in [{lower}, {upper:.2f}]",
        ra,
    )
    return ok


# each suite takes (d, dstar); theorem1 uses d alone.  claims (VC(F) = 3d) is
# theorem1's vc_f check, theorem2 (VC(F) = d_a within d_a_interval) lemma2's
# d_a_sandwich, as VC(F) = d_a for every H and Phi (see ``priverm.vc``)
SUITES = {
    "theorem1": _suite_theorem1,
    "lemma1": _suite_lemma1,
    "lemma2": _suite_lemma2,
    "theorem2": _suite_lemma2,
    "claims": _suite_theorem1,
}


def cmd_verify(args) -> int:
    ok = SUITES[args.suite](args.d, args.dstar if args.dstar is not None else args.d)
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """The top-level parser; ``flags`` finds its global flags alone.

    argparse sets an unknown flag aside and reads the value after it as the
    command, so ``--sead 3 vc h.json`` would fail as ``invalid choice:
    '3'``.  That error names the flag and the value instead, as
    ``unrecognized arguments: --sead 3``, the line a flag argparse knows no
    value for gets after a subcommand.  ``flags`` reads no flag's value, so
    a bad one beside the misspelt flag, as in ``--seed x``, changes nothing.
    """

    def parse_known_args(self, args=None, namespace=None):
        self.argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(self.argv, namespace)

    def error(self, message):
        if message.startswith("argument command: invalid choice: "):
            try:
                # what the global flags leave, in order: here an unknown flag, then the value
                rest = self.flags.parse_known_args(self.argv)[1]
            except argparse.ArgumentError:
                rest = []
            if len(rest) > 1 and rest[0].startswith("-") and message.startswith(
                f"argument command: invalid choice: {rest[1]!r} "
            ):
                message = f"unrecognized arguments: {rest[0]} {rest[1]}"
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="priverm",
        description="finite-class workbench for privileged risk minimization",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--format", choices=("json", "csv", "table"), default="json")
    parser.add_argument("--output-dir", default=None)
    parser.flags = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    for flag in ("--seed", "--format", "--output-dir"):
        parser.flags.add_argument(flag)
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser
    )

    p = sub.add_parser("vc", help="exact VC dimension of a class file")
    p.add_argument("class_file")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)

    p = sub.add_parser("construct", help="emit a named construction")
    p.add_argument("--what", choices=("theorem1", "lemma1", "theorem5"), required=True)
    p.add_argument("--d", type=int, default=1)
    # None: each construction takes its smallest valid d*
    p.add_argument("--dstar", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=1 / 256)
    p.add_argument("--heavy-side", default=None, help="bit string, one per pair")

    p = sub.add_parser("erm", help="run the minimizers on a sample file")
    p.add_argument("--h-class", required=True)
    p.add_argument("--phi-class", default=None)
    p.add_argument("--sample", required=True)
    p.add_argument("--c", type=float, default=1.0)

    p = sub.add_parser("bounds", help="evaluate bounds and conditions")
    p.add_argument("--inputs", default=None, help="BoundInputs JSON file")
    # one flag per BoundInputs key, e.g. --d-a for d_a; cmd_bounds reads them
    for k, read, _ in BoundInputs.KEYS:
        p.add_argument("--" + k.replace("_", "-"), type=int if read is strict_int else float)

    p = sub.add_parser("sim", help="seeded Monte Carlo experiments")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", choices=("comparison", "deviation"), default="comparison")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--dstar", type=int, default=None)

    return parser


# built once, at import; each call of main parses with it
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # read at call time, so a cmd_* replaced on the module is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # an m or trials too large to allocate is bad input, not a crash
        detail = f": {exc}" if str(exc) else ""
        print(f"input error: out of memory{detail}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        # a fault in priverm itself, never bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())