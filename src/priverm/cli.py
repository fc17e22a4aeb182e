"""Command-line front end: vc, construct, erm, bounds, sim, verify.

Exit codes: 0 success, 2 bad input (parse/validation), 3 node budget
exhausted where an exact answer was required, 4 I/O failure.  A failed
verification check exits 1.  ``--threads`` is accepted for compatibility
and must be >= 1; the experiments run in one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bounds import (
    BoundInputs,
    alpha_threshold,
    bound_erm,
    bound_pr,
    d_a_interval,
    necessary_condition,
    r_fast,
    sufficient_condition,
)
from .constructions import (
    construct_lemma1_tight,
    construct_lemma2_witness,
    construct_theorem1,
    construct_theorem5_family,
    full_class,
    phi_prime_subclass,
)
from .core import (
    class_from_json,
    class_to_json,
    distribution_from_json,
    distribution_to_json,
    dump_json,
    load_json,
    product_index,
    product_legend,
    sample_from_json,
    strict_int,
    strict_real,
)
from .vc import (
    MODE_EXACT,
    build_aux_class,
    build_f_class,
    is_shattered,
    union_class,
    vc_dimension,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_IO = 4


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    elif fmt == "csv":
        keys = sorted(obj)
        print(",".join(keys))
        print(",".join(str(obj[k]) for k in keys))
    else:
        width = max(len(k) for k in obj)
        for k in sorted(obj):
            print(f"{k:<{width}}  {obj[k]}")


def _load_class(path: str, label: str):
    return class_from_json(load_json(path), label=label)


def _config_float(value, what: str) -> float:
    """A JSON number as a float; the message names the field when it is none or overflows."""
    try:
        return float(strict_real(value, what))
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


# --- subcommands ------------------------------------------------------------


def cmd_vc(args) -> int:
    cls = _load_class(args.class_file, label="X")
    report = vc_dimension(cls, mode=args.mode, budget=args.budget)
    _emit(report.to_json(), args.format)
    if args.mode == MODE_EXACT and not report.exact:
        print(
            "node budget exhausted before the exact answer "
            f"(nodes={report.nodes}, level={report.vc})",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.what == "theorem1":
        H, Phi = construct_theorem1(args.d)
        payload = {
            "h_class": class_to_json(H),
            "phi_class": class_to_json(Phi),
            "legend_product": product_legend(H.domain.size, Phi.domain.size),
        }
    elif args.what == "lemma1":
        H, J = construct_lemma1_tight(args.d, args.dstar)
        payload = {
            "h_class": class_to_json(H),
            "j_class": class_to_json(J),
            "domain_size": H.domain.size,
        }
    elif args.what == "theorem5":
        Phi = full_class(args.dstar, label="X*")
        heavy = tuple(int(c) for c in args.heavy_side) if args.heavy_side else None
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
    else:
        raise ValueError(f"unknown construction {args.what!r}")

    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        out = os.path.join(args.output_dir, f"{args.what}.json")
        dump_json(payload, out)
        print(out)
    else:
        _emit(payload, "json")
    return EXIT_OK


def cmd_erm(args) -> int:
    # numpy-backed, so imported here: the other commands start without numpy
    from .erm import erm_privileged, erm_standard

    H = _load_class(args.h_class, label="X")
    s = sample_from_json(load_json(args.sample))
    if args.phi_class is None:
        result = erm_standard(H, s).to_json()
    else:
        Phi = _load_class(args.phi_class, label="X*")
        result = erm_privileged(H, Phi, s, args.c).to_json()
    _emit(result, args.format)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.inputs:
        raw = load_json(args.inputs)
        if not isinstance(raw, dict):
            raise ValueError("bounds inputs must be a JSON object")
        raw.update(
            {
                k: v
                for k, v in vars(args).items()
                if k in ("m", "delta", "d", "dstar", "d_a", "eps_erm", "eps_ig", "eps_u")
                and v is not None
            }
        )
        for k in ("m", "d", "dstar", "d_a"):
            if k in raw:
                raw[k] = strict_int(raw[k], k)
        for k in ("delta", "eps_erm", "eps_ig", "eps_u"):
            if k in raw:
                raw[k] = strict_real(raw[k], k)
        inputs = BoundInputs(**raw)
    else:
        required = ("m", "delta", "d", "dstar", "d_a")
        missing = [k for k in required if getattr(args, k) is None]
        if missing:
            raise ValueError(f"missing required flags: {', '.join(missing)}")
        inputs = BoundInputs(
            m=args.m,
            delta=args.delta,
            d=args.d,
            dstar=args.dstar,
            d_a=args.d_a,
            eps_erm=args.eps_erm or 0.0,
            eps_ig=args.eps_ig or 0.0,
            eps_u=args.eps_u or 0.0,
        )
    nec = necessary_condition(inputs) if inputs.d > 0 else None
    gap = inputs.eps_erm - (inputs.eps_ig + inputs.eps_u)
    report = {
        "r_fast_d": r_fast(inputs.d, inputs.m, inputs.delta),
        "r_fast_dstar": r_fast(inputs.dstar, inputs.m, inputs.delta),
        "r_fast_d_a": r_fast(inputs.d_a, inputs.m, inputs.delta),
        "b_erm": bound_erm(inputs),
        "b_pr": bound_pr(inputs),
        "d_a_interval": list(d_a_interval(inputs.d, inputs.dstar)),
        "alpha_root": alpha_threshold(),
    }
    if abs(gap) <= 1e-9:
        suff = sufficient_condition(inputs)
        report["sufficient"] = suff.to_json()
    if nec is not None:
        report["necessary"] = nec.to_json()
    _emit(report, args.format)
    return EXIT_OK


def cmd_sim(args) -> int:
    from .simulate import (
        ExperimentConfig,
        persist_run,
        run_comparison,
        run_theorem5_experiment,
    )

    raw = load_json(args.config)
    if args.kind == "comparison":
        delta = _config_float(raw["delta"], "delta")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        C = _config_float(raw.get("c", 1.0), "c")
        if not 0 < C < math.inf:
            raise ValueError(f"c must be positive and finite, got {C}")
        config = ExperimentConfig(
            distribution=distribution_from_json(raw["distribution"]),
            H=class_from_json(raw["h_class"], label="X"),
            Phi=class_from_json(raw["phi_class"], label="X*"),
            m=strict_int(raw["m"], "m"),
            trials=strict_int(raw["trials"], "trials"),
            delta=delta,
            seed=strict_int(
                args.seed if args.seed is not None else raw.get("seed", 0), "seed"
            ),
            C=C,
            threads=args.threads,
            output_dir=args.output_dir or raw.get("output_dir"),
        )
        records, summary = run_comparison(config)
        if config.output_dir:
            out = persist_run(records, summary, config)
            print(out)
        else:
            _emit(summary, args.format)
        return EXIT_OK

    # deviation experiment
    Phi = class_from_json(raw["phi_class"], label="X*")
    heavy = raw.get("heavy_side")
    family, _ = construct_theorem5_family(
        Phi,
        eps=_config_float(raw["eps"], "eps"),
        delta=_config_float(raw["delta"], "delta"),
        heavy_side=tuple(heavy) if heavy is not None else None,
    )
    search = (
        phi_prime_subclass(Phi, family.pairs)
        if raw.get("search", "prime") == "prime"
        else Phi
    )
    report = run_theorem5_experiment(
        family,
        search,
        m=strict_int(raw["m"], "m"),
        trials=strict_int(raw["trials"], "trials"),
        seed=strict_int(
            args.seed if args.seed is not None else raw.get("seed", 0), "seed"
        ),
        threads=args.threads,
    )
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        out = os.path.join(args.output_dir, "deviation.json")
        dump_json(report, out)
        print(out)
    else:
        _emit(report, args.format)
    return EXIT_OK


# --- verification suites ----------------------------------------------------


def _checkline(name: str, ok: bool, detail: str, report=None) -> bool:
    """Print one check; the detail of a search cut by the node budget says so."""
    if report is not None and not report.exact:
        detail += " (lower bound: node budget exhausted)"
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _suite_theorem1(d: int) -> bool:
    H, Phi = construct_theorem1(d)
    rh, rp = vc_dimension(H), vc_dimension(Phi)
    F = build_f_class(H, Phi)
    rf = vc_dimension(F)
    diag = [product_index(i, i, 0, Phi.domain.size) for i in range(3 * d)]
    ok = True
    ok &= _checkline("vc_h", rh.vc == d and rh.exact, f"VC(H)={rh.vc}, want {d}", rh)
    ok &= _checkline(
        "vc_phi", rp.vc == d and rp.exact, f"VC(Phi)={rp.vc}, want {d}", rp
    )
    ok &= _checkline(
        "vc_f", rf.vc == 3 * d and rf.exact, f"VC(F)={rf.vc}, want {3 * d}", rf
    )
    ok &= _checkline(
        "diagonal_witness", is_shattered(F, diag), f"{3 * d} diagonal points"
    )
    print(
        f"additive prediction d+d* = {2 * d}; measured VC(F) = {rf.vc}; "
        + ("REFUTED" if rf.vc != 2 * d else "consistent")
    )
    return ok


def _suite_claims(d: int) -> bool:
    H, Phi = construct_theorem1(d)
    F = build_f_class(H, Phi)
    rf = vc_dimension(F)
    refuted = rf.vc != 2 * d
    print(f"additive prediction d+d* = {2 * d}; measured VC(F) = {rf.vc}")
    print("REFUTED" if refuted else "consistent")
    return _checkline(
        "claims", rf.vc == 3 * d, f"measured {rf.vc} matches 3d = {3 * d}", rf
    )


def _suite_lemma1(d: int, dstar: int) -> bool:
    H, J = construct_lemma1_tight(d, dstar)
    ru = vc_dimension(union_class(H, J))
    rh, rj = vc_dimension(H), vc_dimension(J)
    ok = True
    ok &= _checkline("vc_h", rh.vc == d, f"VC(H)={rh.vc}, want {d}")
    ok &= _checkline("vc_j", rj.vc == dstar, f"VC(J)={rj.vc}, want {dstar}")
    want = d + dstar + 1
    ok &= _checkline(
        "vc_union", ru.vc == want and ru.exact, f"VC(H∪J)={ru.vc}, want {want}"
    )
    return ok


def _suite_lemma2(d: int, dstar: int) -> bool:
    H, _ = construct_theorem1(d)
    _, Phi = construct_theorem1(dstar)
    witness = construct_lemma2_witness(H, Phi, verify=True)
    aux = build_aux_class(H, Phi)
    ra = vc_dimension(aux)
    lower, upper = d_a_interval(d, dstar)
    ok = True
    ok &= _checkline(
        "witness_size",
        len(witness) == d + dstar - 2,
        f"{len(witness)} triples, want {d + dstar - 2}",
    )
    ok &= _checkline(
        "d_a_sandwich",
        lower <= ra.vc <= upper and ra.exact,
        f"d_a={ra.vc} in [{lower}, {upper:.2f}]",
        ra,
    )
    return ok


def _suite_theorem2(d: int, dstar: int) -> bool:
    H, _ = construct_theorem1(d)
    _, Phi = construct_theorem1(dstar)
    F = build_f_class(H, Phi)
    rf = vc_dimension(F)
    _, upper = d_a_interval(d, dstar)
    return _checkline(
        "vc_f_upper",
        rf.vc <= upper and rf.exact,
        f"VC(F)={rf.vc} <= {upper:.2f}",
        rf,
    )


def cmd_verify(args) -> int:
    d = args.d
    dstar = args.dstar if args.dstar is not None else d
    if args.suite == "theorem1":
        ok = _suite_theorem1(d)
    elif args.suite == "claims":
        ok = _suite_claims(d)
    elif args.suite == "lemma1":
        ok = _suite_lemma1(d, dstar)
    elif args.suite == "lemma2":
        ok = _suite_lemma2(d, dstar)
    else:
        ok = _suite_theorem2(d, dstar)
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priverm",
        description="finite-class workbench for privileged risk minimization",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; must be >= 1"
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "table"), default="json"
    )
    parser.add_argument("--output-dir", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vc", help="exact VC dimension of a class file")
    p.add_argument("class_file")
    p.add_argument("--mode", choices=("exact", "lower-bound-only"), default="exact")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.set_defaults(func=cmd_vc)

    p = sub.add_parser("construct", help="emit a named construction")
    p.add_argument("--what", choices=("theorem1", "lemma1", "theorem5"), required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--dstar", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=1 / 256)
    p.add_argument("--heavy-side", default=None, help="bit string, one per pair")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("erm", help="run the minimizers on a sample file")
    p.add_argument("--h-class", required=True)
    p.add_argument("--phi-class", default=None)
    p.add_argument("--sample", required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(func=cmd_erm)

    p = sub.add_parser("bounds", help="evaluate bounds and conditions")
    p.add_argument("--inputs", default=None, help="BoundInputs JSON file")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--dstar", type=int, default=None)
    p.add_argument("--d-a", dest="d_a", type=int, default=None)
    p.add_argument("--eps-erm", dest="eps_erm", type=float, default=None)
    p.add_argument("--eps-ig", dest="eps_ig", type=float, default=None)
    p.add_argument("--eps-u", dest="eps_u", type=float, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sim", help="seeded Monte Carlo experiments")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", choices=("comparison", "deviation"), default="comparison")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=("theorem1", "lemma1", "lemma2", "theorem2", "claims"),
        required=True,
    )
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--dstar", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"invalid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())