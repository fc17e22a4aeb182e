"""Finite-class workbench for privileged empirical risk minimization.

Everything here operates on explicitly enumerated hypothesis classes over
small indexed domains, so VC dimensions, risk minimizers, and true errors
are computed exactly rather than estimated.

``import priverm`` loads no submodule: each public name below, and each of
the six submodules, is imported on first use (PEP 562), so the package
stays numpy-free until a solver or experiment name is read.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "core": (
            "BoundInputs DeviationConfig ExperimentConfig FiniteDomain FiniteDistribution "
            "Hypothesis HypothesisClass Triple TripleSample aux_loss composite_loss "
            "exact_true_error f_loss ignoring_loss zero_one_loss"
        ),
        "vc": (
            "VcReport build_aux_class build_f_class count_shattered is_shattered "
            "k_fold_union union_class vc_dimension"
        ),
        "constructions": (
            "Theorem5Family construct_lemma1_tight construct_lemma2_witness "
            "construct_theorem1 construct_theorem5_family phi_prime_subclass"
        ),
        "bounds": (
            "alpha_threshold bound_erm bound_pr d_a_interval necessary_condition "
            "r_fast r_slow sufficient_condition"
        ),
        "erm": "ErmResult PrivilegedErmResult erm_privileged erm_standard",
        "simulate": "TrialRecord persist_run run_comparison run_theorem5_experiment sample",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)  # a submodule name stands for itself
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
