"""Runs the ``priverm`` console-script target as a child process would.

Usage: python3 perfbench/launcher.py <module:function> [priverm arguments...]

The target is the ``[project.scripts]`` entry the benchmark read from
``pyproject.toml``.  When PERFBENCH_TRACE_OUT names a file, the launcher
records spans around the program's public functions for the duration of
the call and writes them there, with the time spent inside the target,
even when the target raises.
"""

from __future__ import annotations

import importlib
import os
import sys
import time


def main() -> int:
    module_name, func_name = sys.argv[1].split(":")
    target = getattr(importlib.import_module(module_name), func_name)
    sys.argv = ["priverm", *sys.argv[2:]]
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        return target()

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        return target()
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
        tracer.dump(trace_out, {"main_s": main_s})


if __name__ == "__main__":
    sys.exit(main())
