"""Euclidean-algorithm toolkit: traced gcds, Bezout certificates, division
rebuilt from certificates, continued fractions, Dedekind sums, perfect
numbers, and coprime-witness window verification.

Importing the package loads none of its modules. A public name, or a module
name such as `euclidkit.euclid`, imports its module on first use (PEP 562),
so a command or a caller pays only for the layers it reaches."""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "cf_dynamics": "ContinuedFraction DynamicsRun QuotientSumStat UnimodularMatrix"
    " average_cf_length cf_expand cf_value dynamical_run yao_knuth_stat",
    "dedekind": "dedekind_sum reciprocity_residual reciprocity_scan sawtooth",
    "errors": "CertificateMismatchError DomainError HypothesisFailedError"
    " ResourceLimitError rational_str",
    "euclid": "BezoutCertificate EuclidStep EuclidTrace division_from_bezout gcd_many"
    " gcd_remainder gcd_subtractive lcm lowest_terms xgcd",
    "integers": "Factorization factorize lucas_lehmer primes_up_to sigma smallest_prime_factor",
    "propositions": "EuclidExtension LemmaWitness PerfectCertificate classify_perfect"
    " coprime_by_prop1 euclid_lemma_witness euclid_prime_extension perfect_from_mersenne"
    " perfect_scan",
    "sequences": "GrimmAssignment WReport composite_runs default_window_bound grimm_assign"
    " grimm_scan interval_equivalence_scan non_w_max_run prime_interval_equivalence"
    " verify_assignment w_witness",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule also binds it as an attribute here
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
