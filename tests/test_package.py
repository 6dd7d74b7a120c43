"""The package namespace: its public names, which modules a command loads,
and the budget keyword of every primitive that takes one."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import euclidkit

# Every public name the package binds. Before the namespace became one table,
# __all__ listed all of these but yao_knuth_stat, which only star imports missed.
PUBLIC_NAMES = [
    "BezoutCertificate",
    "CertificateMismatchError",
    "ContinuedFraction",
    "DomainError",
    "DynamicsRun",
    "EuclidExtension",
    "EuclidStep",
    "EuclidTrace",
    "Factorization",
    "GrimmAssignment",
    "HypothesisFailedError",
    "LemmaWitness",
    "PerfectCertificate",
    "QuotientSumStat",
    "ResourceLimitError",
    "UnimodularMatrix",
    "WReport",
    "average_cf_length",
    "cf_expand",
    "cf_value",
    "classify_perfect",
    "composite_runs",
    "coprime_by_prop1",
    "dedekind_sum",
    "default_window_bound",
    "division_from_bezout",
    "dynamical_run",
    "euclid_lemma_witness",
    "euclid_prime_extension",
    "factorize",
    "gcd_many",
    "gcd_remainder",
    "gcd_subtractive",
    "grimm_assign",
    "grimm_scan",
    "interval_equivalence_scan",
    "lcm",
    "lowest_terms",
    "lucas_lehmer",
    "non_w_max_run",
    "perfect_from_mersenne",
    "perfect_scan",
    "prime_interval_equivalence",
    "primes_up_to",
    "rational_str",
    "reciprocity_residual",
    "reciprocity_scan",
    "sawtooth",
    "sigma",
    "smallest_prime_factor",
    "verify_assignment",
    "w_witness",
    "xgcd",
    "yao_knuth_stat",
]

MODULES = ["cf_dynamics", "dedekind", "errors", "euclid", "integers", "propositions", "sequences"]


def test_all_lists_the_public_names():
    assert euclidkit.__all__ == PUBLIC_NAMES


def test_each_name_is_its_defining_modules_object():
    for name in PUBLIC_NAMES:
        value = getattr(euclidkit, name)
        defining = importlib.import_module(value.__module__)
        assert defining.__name__ in {f"euclidkit.{module}" for module in MODULES}, name
        assert value is getattr(defining, name), name


def test_module_names_resolve_to_the_submodules():
    for module in MODULES:
        assert getattr(euclidkit, module) is importlib.import_module(f"euclidkit.{module}")


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from euclidkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(euclidkit, name) for name in PUBLIC_NAMES)
    assert set(PUBLIC_NAMES + MODULES) <= set(dir(euclidkit))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'euclidkit' has no attribute 'nope'"):
        euclidkit.nope
    with pytest.raises(ImportError):
        exec("from euclidkit import nope", {})


# ---------------------------------------------------------------------------
# what a fresh interpreter loads

# Standard-library modules the CLI keeps off its path (dataclasses with inspect
# cost more to import than a small command's work), and numpy, which only the
# perfect scan needs. numpy imports inspect itself.
WATCHED = ["dataclasses", "inspect", "numpy"]


def _loaded(code: str, watched: list[str] = WATCHED) -> tuple[set[str], set[str]]:
    """(euclidkit modules loaded, watched modules loaded) after running code
    in a new interpreter."""
    report = (
        "print(json.dumps([sorted(m for m in sys.modules if m.partition('.')[0] == 'euclidkit'),"
        f" [m for m in {watched!r} if m in sys.modules]]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\n{report}"],
        capture_output=True,
        text=True,
        check=True,
    )
    modules, loaded = json.loads(result.stdout.splitlines()[-1])
    return set(modules), set(loaded)


def _after_command(*argv: str, watched: list[str] = WATCHED) -> tuple[set[str], set[str]]:
    return _loaded(f"from euclidkit import cli\ncli.main({list(argv)!r})", watched)


CLI_BASE = {"euclidkit", "euclidkit.cli", "euclidkit.errors"}


def test_importing_the_package_loads_no_module():
    assert _loaded("import euclidkit") == ({"euclidkit"}, set())


def test_gcd_loads_only_the_euclid_layer():
    assert _after_command("gcd", "240", "46") == (CLI_BASE | {"euclidkit.euclid"}, set())


def test_dedekind_loads_only_the_dedekind_layer():
    assert _after_command("dedekind", "5", "7") == (CLI_BASE | {"euclidkit.dedekind"}, set())


def test_the_reciprocity_scan_loads_neither_fractions_nor_decimal():
    # dedekind imports fractions, which imports decimal, only to build a
    # Fraction; cf shows its reduced round trip without one
    watched = ["fractions", "decimal"]
    for argv in (["reciprocity-scan", "--limit", "20"], ["cf", "355", "113"]):
        assert _after_command(*argv, watched=watched)[1] == set(), argv


def test_dedekind_builds_its_fraction_in_a_new_interpreter(run_cli):
    result = run_cli("dedekind", "5", "101", "--format", "report")
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("summary value: 125/101\n")


def test_perfect_and_euclid_extend_load_only_the_propositions_layer():
    # coprime_by_prop1, the one proposition on the Euclid layer, imports it itself
    for argv in (["perfect", "7"], ["perfect", "--scan", "100"], ["euclid-extend", "2", "3"]):
        loaded = _after_command(*argv)[0]
        assert loaded == CLI_BASE | {"euclidkit.propositions", "euclidkit.integers"}, argv


def test_only_the_perfect_scan_loads_numpy():
    assert "numpy" not in _after_command("perfect", "7")[1]
    assert "numpy" in _after_command("perfect", "--scan", "100")[1]


def test_no_readme_command_imports_dataclasses_or_inspect(readme_command_lines):
    # the README lines run every COMMANDS entry (test_cli checks that they do)
    for argv in readme_command_lines:
        expected = {"inspect", "numpy"} if argv[1:3] == ["perfect", "--scan"] else set()
        assert _after_command(*argv[1:])[1] == expected, argv


def test_no_source_module_imports_dataclasses():
    for path in sorted(Path(euclidkit.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported = {a.name for node in nodes if isinstance(node, ast.Import) for a in node.names}
        imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name


# ---------------------------------------------------------------------------
# budgets

# Arguments on which each public primitive with a budget keyword completes
# within a budget of 10**6, and so reaches its budget check.
BUDGETED = {
    "average_cf_length": (10,),
    "classify_perfect": (28,),
    "composite_runs": (30,),
    "coprime_by_prop1": (9, 4),
    "division_from_bezout": (240, 46, euclidkit.BezoutCertificate(240, 46, 2, -9, 47)),
    "dynamical_run": (21, 13),
    "euclid_prime_extension": ([2, 3],),
    "factorize": (360,),
    "gcd_subtractive": (240, 46),
    "grimm_assign": (89, 7),
    "grimm_scan": (100,),
    "interval_equivalence_scan": (50,),
    "lucas_lehmer": (7,),
    "perfect_from_mersenne": (7,),
    "perfect_scan": (100,),
    "prime_interval_equivalence": (10,),
    "primes_up_to": (10,),
    "reciprocity_scan": (10,),
    "sigma": (28,),
    "smallest_prime_factor": (92,),  # even: the budget is checked before the shortcut
    "yao_knuth_stat": (10,),
}


def _budget_keyword(op) -> str | None:
    names = [name for name in inspect.signature(op).parameters if name.endswith("_budget")]
    return names[0] if names else None


def test_every_budgeted_primitive_is_listed():
    listed = {name for name in PUBLIC_NAMES if inspect.isfunction(getattr(euclidkit, name))}
    assert {name for name in listed if _budget_keyword(getattr(euclidkit, name))} == set(BUDGETED)


@pytest.mark.parametrize("budget", ["10", 1.5, True], ids=["str", "float", "bool"])
@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_budgets_must_be_integers(name, budget):
    op, args = getattr(euclidkit, name), BUDGETED[name]
    keyword = _budget_keyword(op)
    op(*args, **{keyword: 10**6})
    refusal = f"^budget must be an integer, got {type(budget).__name__}$"
    with pytest.raises(euclidkit.DomainError, match=refusal):
        op(*args, **{keyword: budget})


@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_a_negative_budget_is_refused_and_a_zero_one_is_a_budget(name):
    # every primitive checks its own budget before it hands the budget on,
    # so the refusal names the function called
    op, args = getattr(euclidkit, name), BUDGETED[name]
    keyword = _budget_keyword(op)
    with pytest.raises(euclidkit.DomainError, match=rf"^{name} needs budget >= 0, got -1$"):
        op(*args, **{keyword: -1})
    try:
        assert op(*args, **{keyword: 0}) == op(*args)
    except euclidkit.ResourceLimitError:
        pass  # too small a budget for these arguments, not a bad one


@pytest.mark.parametrize(
    "budget, refusal",
    [
        ("10", "budget must be an integer, got str"),
        (1.5, "budget must be an integer, got float"),
        (True, "budget must be an integer, got bool"),
        (-1, "coprime_by_prop1 needs budget >= 0, got -1"),
    ],
    ids=["str", "float", "bool", "negative"],
)
def test_coprime_by_prop1_checks_its_budget_at_one_one(budget, refusal):
    # (1, 1) walks the subtraction chain like any other pair
    assert euclidkit.coprime_by_prop1(1, 1)
    with pytest.raises(euclidkit.DomainError) as exc:
        euclidkit.coprime_by_prop1(1, 1, step_budget=budget)
    assert str(exc.value) == refusal
