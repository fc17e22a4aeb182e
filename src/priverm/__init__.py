"""Finite-class workbench for privileged empirical risk minimization.

Everything here operates on explicitly enumerated hypothesis classes over
small indexed domains, so VC dimensions, risk minimizers, and true errors
are computed exactly rather than estimated.
"""

import importlib

from priverm.core import (
    ExperimentConfig,
    FiniteDomain,
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    Triple,
    TripleSample,
    aux_loss,
    composite_loss,
    exact_true_error,
    f_loss,
    ignoring_loss,
    zero_one_loss,
)
from priverm.vc import (
    VcReport,
    build_aux_class,
    build_f_class,
    count_shattered,
    is_shattered,
    k_fold_union,
    union_class,
    vc_dimension,
)
from priverm.constructions import (
    Theorem5Family,
    construct_lemma1_tight,
    construct_lemma2_witness,
    construct_theorem1,
    construct_theorem5_family,
    phi_prime_subclass,
)
from priverm.bounds import (
    BoundInputs,
    alpha_threshold,
    bound_erm,
    bound_pr,
    d_a_interval,
    necessary_condition,
    r_fast,
    r_slow,
    sufficient_condition,
)

# numpy-backed names, imported on first use (PEP 562) so that importing the
# package, the CLI, and the vc, bounds and construction modules stays
# numpy-free
_LAZY = {
    "ErmResult": "erm",
    "PrivilegedErmResult": "erm",
    "erm_privileged": "erm",
    "erm_standard": "erm",
    "TrialRecord": "simulate",
    "persist_run": "simulate",
    "run_comparison": "simulate",
    "run_theorem5_experiment": "simulate",
    "sample": "simulate",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
