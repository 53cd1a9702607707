"""The package's public surface: graphirr.__all__ is the union of the module lists."""

import argparse
import ast
import re
from pathlib import Path

import graphirr
from graphirr import cli, enumeration, generators, graphs, io, measures, spectral

MODULES = (graphs, io, measures, spectral, generators, enumeration)

PUBLIC = {
    "CLAIM_IDS", "CLAIM_SUMMARIES", "CSV_COLUMNS", "ConvergenceError",
    "DEFAULT_MAX_ITERATIONS", "DEFAULT_TABLE_ROWS", "DEFAULT_TOLERANCE",
    "FAMILIES", "FormatError", "Graph", "MeasureReport", "NkSpectrum",
    "SpectralResult", "VerificationReport", "__version__", "albertson", "antiregular",
    "complete", "complete_minus_edge", "complete_split", "compute_all", "cs_index", "cycle",
    "degree_deviation", "degree_sequence", "degree_set_size", "discrepancy", "emit_edgelist",
    "emit_graph6", "family", "format_value", "gini", "gini_sequence", "gnp", "ira", "irb",
    "irr_t", "is_connected", "is_isomorphic_to", "lambda1", "n0", "nk_spectrum", "pair_order",
    "parse_edgelist", "parse_graph6", "path", "randic", "rho", "round_half_away", "sigma",
    "star", "variance", "verify_claim",
}

DELETED = ("DegreeDifferenceMatrix", "degree_difference_matrix", "DDM_KINDS",
           "enumerate_graphs", "EnumerationTask", "SPECTRAL_MAX_N", "table_match",
           "CLAIMS", "FamilySpec", "DegreeSequence")


def test_all_is_pinned_and_resolves():
    names = graphirr.__all__
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC
    for name in names:
        assert getattr(graphirr, name) is not None


def test_all_is_the_module_lists():
    assert graphirr.__all__ == [name for m in MODULES for name in m.__all__] + ["__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(graphirr, name) is getattr(module, name)


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from graphirr import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in graphirr.__all__
        assert not hasattr(graphirr, name)
        assert not any(hasattr(module, name) for module in MODULES)


def private_definitions(tree):
    """(name, node) for each module-level _-prefixed name and each _-prefixed
    non-dunder method of a module-level class."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, node) for name in names if private(name))
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef) and private(item.name))


def test_no_private_name_is_left_unreferenced():
    # a simplification must not leave a private helper behind
    trees = {path: ast.parse(path.read_text()) for path in Path(graphirr.__file__).parent.glob("*.py")}
    references = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
                  for path, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                  or isinstance(node, ast.Attribute)]
    orphans = []
    for path, tree in trees.items():
        for name, node in private_definitions(tree):
            own_lines = range(node.lineno, node.end_lineno + 1)
            if not any(used == name and (where != path or line not in own_lines)
                       for where, line, used in references):
                orphans.append(f"{path.name}:{node.lineno} {name}")
    assert orphans == []


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(quick_start, {})
    assert capsys.readouterr().out.splitlines()[:3] == [
        "26 1 14.0",
        "0.5",
        "claim problem1_ira_irb at n=6: passed (26704 graphs checked, 0 violations)",
    ]


def test_readme_usage_matches_the_parser():
    # each subcommand's usage lines in README name the parser's options, no
    # more and no fewer, and PATH... where the command takes several inputs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
    usage = dict(re.findall(r"^graphirr (\w+)(.*(?:\n .*)*)", block, re.M))
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert usage.keys() == subparsers.choices.keys()
    for name, parser in subparsers.choices.items():
        flags = {option for action in parser._actions for option in action.option_strings
                 if option.startswith("--")} - {"--help"}
        assert set(re.findall(r"--[\w-]+", usage[name])) == flags, name
        several = any(action.nargs == "+" for action in parser._actions if not action.option_strings)
        assert ("PATH..." in usage[name]) == several, name
