"""Module boundaries: the production path never reaches the scalar oracle,
every name the benchmark looks up in the package still resolves, and config
field types and ranges are checked in one place.

The benchmark files under `perfbench/` are only read here.
"""
import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import secsched
from secsched.simulator import _FIELD_TYPES, ScenarioConfig

PACKAGE = Path(secsched.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imported_modules(path: Path) -> set[str]:
    """Dotted names of every module `path` imports, relative imports resolved.

    `from a import b` counts as importing both `a` and `a.b`, since `b` may be
    a module.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(part for part in ("secsched" if node.level else "", node.module)
                              if part)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["channel", "control", "secrecy", "simulator", "cli"])
def test_production_modules_do_not_import_the_oracle(module):
    imported = _imported_modules(PACKAGE / f"{module}.py")
    assert "secsched.oracle" not in imported


def test_every_benchmark_wrap_target_resolves():
    # WRAPS is a tuple of (module, attribute, span, counter) tuples; the first
    # two are string literals, read from the source without importing it
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    wraps = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == "WRAPS" for target in node.targets))
    targets = [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
               for entry in wraps.elts]
    assert targets
    for module_name, attr in targets:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_secrecy_exports_what_the_benchmark_checks_import():
    imports = [node for node in ast.walk(ast.parse((PERFBENCH / "checks.py").read_text()))
               if isinstance(node, ast.ImportFrom) and node.module == "secsched.secrecy"]
    names = {alias.name for node in imports for alias in node.names}
    assert names == {"colluding_outage_ccdf", "rate_cost_noncolluding_bisect"}
    secrecy = importlib.import_module("secsched.secrecy")
    assert all(callable(getattr(secrecy, name, None)) for name in names)


def _top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(getattr(target, "id", None) for target in node.targets)
    return names


def test_every_config_field_type_has_a_rule():
    kinds = {f.type for f in dataclasses.fields(ScenarioConfig)}
    assert kinds <= set(_FIELD_TYPES), kinds - set(_FIELD_TYPES)


def test_config_types_and_ranges_are_checked_only_by_the_scenario():
    assert "_KEY_TYPES" not in _top_level_names(PACKAGE / "cli.py")
    assert "ascending_grid" not in _top_level_names(PACKAGE / "control.py")


def test_the_float_format_is_written_once():
    # every CSV float goes through the one writer's conversion table
    uses = {path.name: path.read_text().count("17g") for path in PACKAGE.glob("*.py")}
    assert sum(uses.values()) == 1, {name: n for name, n in uses.items() if n}


def _function(path: Path, name: str) -> ast.FunctionDef:
    return next(node for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("module,function", [
    ("secrecy", "calibrate_outage"), ("secrecy", "rate_cost_table"), ("oracle", "secrecy_rate"),
])
def test_rate_costs_are_priced_through_the_table(module, function):
    names = _names(_function(PACKAGE / f"{module}.py", function))
    assert not names & {"rate_cost_colluding", "rate_cost_noncolluding"}


def test_only_the_threshold_and_the_oracle_bisect_a_tail():
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_bisect_decreasing"
                   for n in ast.walk(top)):
                callers.add(getattr(top, "name", f"{path.stem} module level"))
    assert callers == {"leakage_threshold", "rate_cost_noncolluding_bisect"}


# Each outage-design rule as the operands its comparison reads: a name (or an
# attribute's last part) from the first set against every constant of the second.
_DESIGN_RULES = {
    "n_antennas against n_eves": ({"n_antennas"}, {"n_eves"}),
    "n_antennas against 2": ({"n_antennas", "n"}, {2}),
    "n_eves against 1": ({"n_eves"}, {1}),
    "eta against (0, 1)": ({"eta", "outage_level"}, {0.0, 1.0}),
    "seed against 0": ({"seed"}, {0}),
}


def _operand_tokens(compare: ast.Compare) -> set:
    tokens = set()
    for operand in [compare.left, *compare.comparators]:
        if isinstance(operand, ast.Name):
            tokens.add(operand.id)
        elif isinstance(operand, ast.Attribute):
            tokens.add(operand.attr)
        elif isinstance(operand, ast.Constant) and not isinstance(operand.value, bool):
            tokens.add(operand.value)
    return tokens


def _functions(path: Path):
    """(qualified name, node) of every top-level function and method in `path`."""
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.FunctionDef):
            yield f"{path.stem}.{top.name}", top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{path.stem}.{top.name}.{node.name}", node


@pytest.mark.parametrize("rule", sorted(_DESIGN_RULES))
def test_each_outage_design_rule_is_written_once(rule):
    names, others = _DESIGN_RULES[rule]
    writers = set()
    for module in ("channel", "control", "secrecy", "simulator", "cli"):
        for qualified, function in _functions(PACKAGE / f"{module}.py"):
            for node in ast.walk(function):
                if isinstance(node, ast.Compare):
                    tokens = _operand_tokens(node)
                    if tokens & names and others <= tokens:
                        writers.add(qualified)
    assert len(writers) == 1, writers
