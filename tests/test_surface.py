"""The package exports what the CLI and the library example run; the label
algebra, the dense realizers, word tables (with their phase-carrying
monomial realization) and the compression stack live in tests/reference.py."""

import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import opgraph
from opgraph import cli, constructions, graph, linalg
from opgraph.constructions import Section4Params, build_section3
from opgraph.graph import CodeSpace, OperatorGraph

import reference

SRC = Path(opgraph.__file__).parent

MOVED = [
    "WeylLabel", "WeylLabelPair", "label", "label_mul", "label_pow", "label_adjoint",
    "weyl_dense", "pair_adjoint", "pair_dense", "word_table", "x_matrix", "z_matrix",
    "hs_inner", "is_unitary", "orthonormalize", "graph_from_labels", "compress", "pair_monomial",
    "_discs", "_gram_schmidt", "dagger",
]


@pytest.mark.parametrize("module", ["opgraph", "opgraph.weyl", "opgraph.linalg", "opgraph.graph"])
def test_moved_names_are_not_in_the_package(module):
    package = importlib.import_module(module)
    assert [name for name in MOVED if hasattr(package, name)] == []


def test_moved_names_are_in_reference():
    assert all(callable(getattr(reference, name)) for name in [*MOVED, "graph_words"])
    assert not hasattr(OperatorGraph, "words")


@pytest.mark.parametrize("module", ["opgraph", "opgraph.graph"])
def test_graph_dim_result_type_is_gone(module):
    # graph_dim returns one int per method; no type pairs the two oracles
    assert not hasattr(importlib.import_module(module), "GraphDim")


@pytest.mark.parametrize("module", ["opgraph", "opgraph.constructions"])
def test_construction_duplicates_are_gone(module):
    # one diagonal-code builder, and the allowed shifts as one array
    package = importlib.import_module(module)
    assert [name for name in ("ResidueSetA", "residue_set_A", "_fourier_diagonal_code") if hasattr(package, name)] == []


def test_code_space_and_degenerate_point_overrides_are_gone():
    # one CodeSpace constructor, from Fourier coordinates alone, with no
    # standard-basis isometry and nothing converting one; and no override of
    # section3's n > 2 or section4's d >= 2
    assert not hasattr(CodeSpace, "from_vectors")
    assert list(inspect.signature(CodeSpace).parameters) == ["fourier", "basis_names"]
    assert not hasattr(build_section3(3)[1], "isometry")
    assert not hasattr(graph, "_fourier_coordinates")
    assert "allow_d1" not in inspect.signature(Section4Params).parameters
    assert "allow_n2" not in inspect.signature(build_section3).parameters


def test_one_factor_table_serves_both_sides():
    # one table of the n^2 words of C^n in equal row patterns: no per-side
    # pattern sets, no pattern offsets and no padding
    assert [name for name in ("_patterns", "_group", "_Patterns") if hasattr(graph, name)] == []
    assert not hasattr(OperatorGraph, "_sides")
    assert list(inspect.signature(graph._Factors).parameters) == ["ids", "rows", "vals"]


def test_commands_alone_read_the_flags():
    # cmd_verify, cmd_sweep and cmd_demo read each flag once, through
    # _read(args); the build and the verification take plain values, and no
    # sweep point is a namespace. Every command checks at the library's two
    # thresholds: no parser has a tolerance flag
    assert [name for name in ("_reject_unread", "_sweep_points") if hasattr(cli, name)] == []
    assert list(inspect.signature(cli._read).parameters) == ["args"]
    assert list(inspect.signature(cli.run_verification).parameters) == ["construction", "values", "deterministic"]
    assert not hasattr(cli, "Tolerance")
    for command in cli.COMMANDS:
        assert not [o for a in _command_parser(command)._actions for o in a.option_strings if o.startswith("--tol-")]


def test_thresholds_are_two_linalg_constants():
    # ABSOLUTE_TOL and RELATIVE_TOL are the only thresholds: no type holds
    # them, no function takes one, and no other module writes their values
    assert [name for name in ("Tolerance", "DEFAULT_TOL") if hasattr(opgraph, name) or hasattr(linalg, name)] == []
    assert (opgraph.ABSOLUTE_TOL, opgraph.RELATIVE_TOL) == (1e-12, 1e-9)
    assert list(inspect.signature(graph.graph_dim).parameters) == ["g", "method"]
    assert list(inspect.signature(graph.is_anticlique).parameters) == ["g", "code"]
    assert list(inspect.signature(linalg._rank_of_grams).parameters) == ["lo", "hi", "order", "form"]
    literals = [
        f"{path.name}: {node.value}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value in (1e-12, 1e-9)
    ]
    assert literals == ["linalg.py: 1e-12", "linalg.py: 1e-09"]


def _command_parser(command: str) -> argparse.ArgumentParser:
    """The subparser of one command, from its one-command parser."""
    sub = next(a for a in cli.build_parser(command)._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _choices(command: str) -> list[str]:
    """The construction choices of the command's parser, in its order."""
    return next(a.choices for a in _command_parser(command)._actions if a.dest == "construction")


def test_one_table_registers_each_construction():
    # a construction's flags, build, params echo, claimed dimension and
    # sweep entry are its CONSTRUCTIONS row, and the parser's choices are
    # the table's keys and, for sweep, the rows with a sweep entry
    assert [name for name in ("READS", "SWEEP_READS", "_build") if hasattr(cli, name)] == []
    assert list(cli.CONSTRUCTIONS) == ["section2", "section3", "section4", "remark2"]
    assert _choices("verify") == _choices("demo") == list(cli.CONSTRUCTIONS)
    assert _choices("sweep") == [name for name, row in cli.CONSTRUCTIONS.items() if row.sweep] == ["section3", "section4"]
    assert all(isinstance(row, cli.Construction) for row in cli.CONSTRUCTIONS.values())


def test_one_mask_helper_and_no_kron_wrapper():
    # every builder writes its closed family through _dense_graph and never
    # closes it; numpy's kron serves the tests directly
    assert [name for name in ("_word_mask", "graph_from_mask") if hasattr(constructions, name)] == []
    assert [module.__name__ for module in (opgraph, linalg) if hasattr(module, "kron")] == []


def test_closure_and_class_walk_need_no_index_helpers():
    # graph_from_mask negates the exponents with np.flip and np.roll, and a
    # tensor class reaches its readers as its set entries (_entries), with
    # no per-class np.ix_
    assert not hasattr(graph, "itertools")
    assert not hasattr(graph, "_block")
    assert "np.ix_" not in inspect.getsource(graph)


def test_package_calls_no_set_or_grid_helpers():
    # the build, the Gram oracle, the verdict and demo index and compute on
    # arrays they already hold: each of these helpers costs a fresh process
    # tens to hundreds of microseconds on first use
    helpers = re.compile(r"\bnp\.(isin|ix_|indices|tile|r_|argwhere|unravel_index|meshgrid)\b")
    calls = [
        f"{path.name}: {match.group()}"
        for path in sorted(SRC.glob("*.py"))
        for match in helpers.finditer(path.read_text())
    ]
    assert calls == []


def test_public_api_is_stated_once():
    # opgraph/__init__.py's imports are the public API: no module restates
    # it in an __all__, and the conjugate transpose is numpy's own
    assigns = re.compile(r"^__all__\b", re.M)
    assert [path.name for path in sorted(SRC.glob("*.py")) if assigns.search(path.read_text())] == []
    assert not hasattr(linalg, "dagger")


def test_check_fields_are_stated_once():
    # one list of check fields serves the CSV header and the text report,
    # bad input is a plain ValueError, and the Gram oracle is graph_dim's
    # own body
    assert not hasattr(cli, "UsageError")
    assert not hasattr(cli, "_print_report_text")
    assert not hasattr(graph, "_gram_dim")
    fields = len(cli.CHECK_FIELDS)
    assert cli.CSV_COLUMNS[:6] == ["construction", "n", "p", "y", "h", "d"]
    assert cli.CSV_COLUMNS[6 : 6 + fields] == cli.CHECK_FIELDS
    assert not set(cli.CHECK_FIELDS) & set(cli.CSV_COLUMNS[6 + fields :])
