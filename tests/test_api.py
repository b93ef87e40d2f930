"""The package's export list, its import cost, and the demos and README
examples that use it."""

import ast
import dataclasses
import inspect
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gedpower
from gedpower import expansions, ged, harness, norming, orderstats, specfun
from gedpower.cli import main
from oracles import gumbel_r_identities

SUBMODULES = (specfun, ged, norming, orderstats, expansions, harness)
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
CRITERIA_HEADING = "## Re-running the acceptance criteria"


def _env() -> dict:
    """The environment for a child process that imports this gedpower."""
    src = str(Path(gedpower.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    return env


def test_all_holds_no_modules():
    for name in gedpower.__all__:
        assert not isinstance(getattr(gedpower, name), types.ModuleType), name


def test_all_is_the_union_of_the_submodules():
    union = [name for mod in SUBMODULES for name in mod.__all__]
    assert len(set(union)) == len(union)
    assert sorted(gedpower.__all__) == sorted(union)
    for mod in SUBMODULES:
        for name in mod.__all__:
            assert getattr(gedpower, name) is getattr(mod, name)


@pytest.mark.parametrize("name", [
    "aux_f_g", "AuxFG", "powered_abs_survival_expansion", "log_pdf",
    "upper_orderstat_cdf", "TailExpansion", "lemma3_transfer",
    "powered_abs_survival", "Accuracy", "DEFAULT_ACCURACY", "DEFAULT_Q_VARIANT",
    "rows_from_json", "normed_threshold", "mc_top_order_stats", "theta_deficit",
    "sample_stream", "gumbel", "gumbel_r_identities", "expand",
    "cdf_gap_from_deficit", "mc_tables",
])
def test_deleted_names_are_gone(name):
    with pytest.raises(ImportError):
        exec(f"from gedpower import {name}", {})


def test_bn_solution_has_no_n_property():
    assert not hasattr(gedpower.BnSolution, "n")


def test_no_function_takes_a_single_valued_setting():
    removed = {"acc", "variant", "q_variant", "budget"}
    for name in gedpower.__all__:
        obj = getattr(gedpower, name)
        if inspect.isfunction(obj):
            assert not removed & set(inspect.signature(obj).parameters), name


def test_stored_fields():
    fields = [f.name for f in dataclasses.fields(gedpower.LinearNorming)]
    assert fields == ["scale", "shift", "log_n"]
    assert [f.name for f in dataclasses.fields(gedpower.GedParams)] == ["v", "lam"]
    assert "q_variant" not in [f.name for f in dataclasses.fields(gedpower.SweepConfig)]


def test_records_are_immutable_and_keep_their_repr():
    # rows and expansion terms are named tuples, with the fields, order,
    # defaults and repr they had as frozen dataclasses
    row = gedpower.VerificationRow(1.0, 2.0, 3, 100.0, -0.5)
    ee = gedpower.ExpansionEval(0.5, -1e-3, 2.5e-7, 3.0, 9.0)
    assert repr(row) == (
        "VerificationRow(v=1.0, p=2.0, r=3, n=100.0, x=-0.5, exact=nan, limit=nan, "
        "err=nan, scaled_err1=nan, target1=nan, scaled_err2=nan, target2=nan, "
        "theta_deficit=nan, remainder_bound=nan, error='')")
    assert repr(ee) == ("ExpansionEval(leading=0.5, first_order=-0.001, "
                        "second_order=2.5e-07, scale_first=3.0, scale_second=9.0)")
    for record, field in ((row, "exact"), (row, "error"), (ee, "leading")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.extra = 0.0
    assert row.error == "" and ee.leading == 0.5


def test_import_leaves_numpy_random_unloaded():
    # the Monte Carlo path loads numpy when it first runs and starts no
    # thread pool; importing numpy with the package costs every other caller
    # about half of its cold start
    code = ("import sys, gedpower; print('numpy' not in sys.modules, "
            "'concurrent.futures' not in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "True True", proc.stderr


def _load_time_imports(tree: ast.Module):
    """The modules a source file imports when it is loaded, that is outside
    any function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imports(tree: ast.Module):
    """Every module a source file imports, in a function body or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_the_monte_carlo_modules_import_numpy():
    # only the Monte Carlo functions import numpy, inside their bodies, so
    # importing the package never loads it
    package = Path(gedpower.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}

    def users(imports):
        return {stem for stem, tree in trees.items()
                if any(name.split(".")[0] == "numpy" for name in imports(tree))}

    assert users(_imports) == {"orderstats", "harness"}  # the sampler's import is seen
    assert users(_load_time_imports) == set()


def _overflow_catchers(tree: ast.Module):
    """The top-level function around each handler that names OverflowError."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(isinstance(t, ast.Name) and t.id == "OverflowError" for t in caught):
                    yield getattr(top, "name", "<module>")


def test_overflow_is_caught_in_four_places():
    # every other power or exponential goes through exp_or_inf or pow_or_inf
    package = Path(gedpower.__file__).resolve().parent
    found = sorted(f"{path.stem}.{name}" for path in package.glob("*.py")
                   for name in _overflow_catchers(ast.parse(path.read_text())))
    assert found == ["norming.solve_bn", "orderstats._gaps_from_deficit",
                     "specfun.exp_or_inf", "specfun.pow_or_inf"]


def test_rank_bound_is_written_once():
    # expand_ranks and SweepConfig both read expansions._MAX_RANK
    package = Path(gedpower.__file__).resolve().parent
    found = [path.stem for path in package.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value == 171
             and type(node.value) is int]
    assert found == ["expansions"]
    readers = {path.stem for path in package.glob("*.py")
               if "_MAX_RANK" in {node.id for node in ast.walk(ast.parse(path.read_text()))
                                  if isinstance(node, ast.Name)}}
    assert readers == {"expansions", "harness"}


@pytest.mark.parametrize("call,message", [
    (lambda: gumbel_r_identities(0, 1.0), "r must be >= 1, got 0"),
    (lambda: orderstats.poisson_powered_cdf(ged.make_params(2.0), 0, 1.0, 1.0, 10.0),
     "r must be >= 1, got 0"),
    (lambda: ged.log_survival(ged.make_params(2.0), -1.0),
     "log_survival is defined for x >= 0"),
], ids=["gumbel_r_identities", "poisson_powered_cdf", "log_survival"])
def test_argument_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _readme_block(heading: str, lang: str) -> str:
    """The first ```lang block after a heading of the README."""
    text = README.read_text()
    section = text[text.index(heading):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start:section.index("```", start)]


def _readme_cli_lines(heading: str = "## CLI") -> list[list[str]]:
    block = _readme_block(heading, "bash").replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_quickstart_prints_its_quoted_values(capsys):
    code = _readme_block("## Library quickstart", "python")
    quoted = re.search(r"# ([\d.]+)\.\.\.\s+([\d.]+)\.\.\.", code).groups()
    exec(code, {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == len(quoted)
    for value, prefix in zip(printed, quoted):
        assert value.startswith(prefix), (value, prefix)


def test_readme_cli_examples_found():
    assert len(_readme_cli_lines()) == 7


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=lambda argv: argv[1])
def test_readme_cli_example_runs(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # verify writes its output here
    assert argv[0] == "gedpower"
    assert main(argv[1:]) == 0


def test_readme_criteria_commands_found():
    # one command per config file, each writing its own output
    lines = _readme_cli_lines(CRITERIA_HEADING)
    files = sorted(path.relative_to(ROOT).as_posix()
                   for path in (ROOT / "tests" / "criteria").glob("*.json"))
    assert len(files) == 5
    assert sorted(argv[3] for argv in lines) == files
    assert len({argv[-1] for argv in lines}) == len(lines)


@pytest.mark.parametrize("argv", _readme_cli_lines(CRITERIA_HEADING),
                         ids=lambda argv: Path(argv[3]).stem)
def test_readme_criteria_command_runs(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # the output goes here; the config is found from the root
    assert argv[:3] == ["gedpower", "verify", "--config"] and argv[4] == "--out"
    assert main([*argv[1:3], str(ROOT / argv[3]), *argv[4:]]) == 0
    assert (tmp_path / argv[5]).read_text().startswith(harness.CSV_HEADER + "\n")
