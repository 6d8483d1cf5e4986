"""The tolerance policy: every threshold is named once, in ``qmarginal.tolerances``."""

import ast
import inspect
from pathlib import Path

import qmarginal as qm
from qmarginal import tolerances
from qmarginal.cli import build_parser

SOURCES = Path(qm.__file__).parent


def small_float_literals(path: Path) -> list[tuple[int, float]]:
    """(line, value) of every float literal 0 < |x| < 1e-5 in a module, less
    the module-level settings of ``unitary_fit`` (its descent's own knobs)."""
    tree = ast.parse(path.read_text())
    exempt = set()
    if path.name == "unitary_fit.py":
        exempt = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)}
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-5
        and id(node) not in exempt
    ]


def test_no_threshold_literal_outside_the_table():
    found = {
        path.name: literals
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "tolerances.py" and (literals := small_float_literals(path))
    }
    assert found == {}


def test_the_table_holds_only_named_numbers():
    tree = ast.parse(Path(tolerances.__file__).read_text())
    docstring, *body = tree.body
    assert isinstance(docstring.value, ast.Constant)
    names = []
    for node in body:
        assert isinstance(node, ast.Assign) and len(node.targets) == 1, ast.dump(node)
        assert isinstance(node.value, ast.Constant), ast.dump(node)
        assert isinstance(node.value.value, (int, float)), ast.dump(node)
        names.append(node.targets[0].id)
    assert len(names) == len(set(names))


def test_cli_defaults_are_the_library_defaults():
    parser = build_parser()

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    for command, fn in (
        ("analyze", qm.classify),
        ("reconstruct", qm.reconstruct),
        ("sibling-search", qm.search_sibling),
    ):
        assert parser.parse_args([command, "input.txt"]).tol == default(fn, "tol")
    budget = parser.parse_args(["sibling-search", "input.txt"]).budget
    assert budget == default(qm.search_sibling, "budget")
