"""In-memory span recorder wrapped around the program's public functions.

A wrapper is installed at every place a caller looks a function up (the
defining module and each module that imports the name), so a call made
from ``priverm.simulate`` to ``erm_privileged`` is seen even though
``simulate`` holds its own reference.  Spans nest on one stack (the
benchmark is single-threaded); a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

# span name -> (function name, modules that look the name up)
_SITES = {
    "vc.vc_dimension": (
        ["vc_dimension"],
        ["vc", "constructions", "simulate", "cli"],
    ),
    "vc.is_shattered": (["is_shattered"], ["vc", "constructions", "cli"]),
    "vc.build_classes": (
        ["build_f_class", "build_aux_class"],
        ["vc", "constructions", "simulate", "cli"],
    ),
    "constructions": (
        [
            "construct_theorem1",
            "full_class",
            "construct_lemma1_tight",
            "construct_lemma2_witness",
            "construct_theorem5_family",
            "phi_prime_subclass",
        ],
        ["constructions", "cli"],
    ),
    "erm.erm_privileged": (["erm_privileged"], ["erm", "simulate", "cli"]),
    "erm.erm_standard": (["erm_standard"], ["erm", "simulate", "cli"]),
    "simulate.sample": (["sample"], ["simulate"]),
    "simulate.run_comparison": (["run_comparison"], ["simulate", "cli"]),
    "simulate.run_theorem5_experiment": (
        ["run_theorem5_experiment"],
        ["simulate", "cli"],
    ),
    "simulate.persist_run": (["persist_run"], ["simulate", "cli"]),
    "bounds": (
        [
            "r_fast",
            "r_slow",
            "bound_erm",
            "bound_pr",
            "d_a_interval",
            "sufficient_condition",
            "necessary_condition",
            "alpha_threshold",
        ],
        ["bounds", "simulate", "cli"],
    ),
    "core.exact_true_error": (["exact_true_error"], ["core", "simulate"]),
    "core.json": (
        [
            "load_json",
            "dump_json",
            "class_to_json",
            "class_from_json",
            "distribution_to_json",
            "distribution_from_json",
            "sample_to_json",
            "sample_from_json",
        ],
        ["core", "simulate", "cli"],
    ),
    "cli.vc": (["cmd_vc"], ["cli"]),
    "cli.erm": (["cmd_erm"], ["cli"]),
    "cli.bounds": (["cmd_bounds"], ["cli"]),
    "cli.sim": (["cmd_sim"], ["cli"]),
    "cli.verify": (["cmd_verify"], ["cli"]),
}


def _count_work(name: str, call: dict, result, counts: dict) -> None:
    """Work counters taken at the span boundary: search nodes, draws, pairs."""
    if name == "vc.vc_dimension":
        counts["vc.nodes"] += result.nodes
    elif name == "erm.erm_privileged":
        counts["erm.pair_triples"] += len(call["H"]) * len(call["Phi"]) * len(call["S"])
    elif name == "simulate.sample":
        counts["simulate.draws"] += call["m"]
    elif name == "simulate.run_theorem5_experiment":
        counts["simulate.draws"] += call["m"] * call["trials"]


_COUNTED = (
    "vc.vc_dimension",
    "erm.erm_privileged",
    "simulate.sample",
    "simulate.run_theorem5_experiment",
)


class Tracer:
    """Records (name, start, end, parent) spans while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn) if name in _COUNTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if sig is not None:
                call = sig.bind(*args, **kwargs).arguments
                _count_work(name, call, result, self.counts)
            return result

        return wrapper

    def install(self) -> None:
        for name, (attrs, modules) in _SITES.items():
            for mod_name in modules:
                mod = importlib.import_module(f"priverm.{mod_name}")
                for attr in attrs:
                    if hasattr(mod, attr):
                        fn = getattr(mod, attr)
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def absorb(self, spans, counts) -> None:
        """Append spans recorded in a child process, keeping their nesting."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1))
        for key, value in counts.items():
            self.counts[key] += value

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, f)


def summarize(spans, counts) -> dict:
    """Per span name: calls, total seconds and self seconds; plus counters."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += end - start - child[i]
    for key, value in counts.items():
        out[key] += value
    return out
