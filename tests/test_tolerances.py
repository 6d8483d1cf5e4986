"""The tolerance policy: every threshold is named once, in ``qmarginal.tolerances``."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

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


# one call per public function or method that takes a tol, on a GHZ orbit
# where every finite tol below gives an answer
TOL_CALLS = {
    "PanelSubset.matches": lambda g, tol: qm.PanelSubset(qm.panel_of_pure(g), [1]).matches(
        qm.panel_of_pure(g), tol
    ),
    "antipodal_support_reduction": lambda g, tol: qm.antipodal_support_reduction(
        g, [(0.0, np.pi / 2)] * 4, tol
    ),
    "classify": lambda g, tol: qm.classify(g, tol),
    "degenerate_ghz_test": lambda g, tol: qm.degenerate_ghz_test(qm.ghz_state(4), tol),
    "equal_up_to_phase": lambda g, tol: qm.equal_up_to_phase(g, qm.haar_random_ket(4, 5), tol),
    "extract_local_unitary": lambda g, tol: qm.extract_local_unitary(g, g, 1, tol),
    "lu_equivalence_check": lambda g, tol: qm.lu_equivalence_check(g, g, tol),
    "panels_equal": lambda g, tol: qm.panels_equal(qm.panel_of_pure(g), qm.panel_of_pure(g), tol),
    "purify_over_qubit": lambda g, tol: qm.purify_over_qubit(qm.panel_of_pure(g).entry(1), 1, tol),
    "reconstruct": lambda g, tol: qm.reconstruct(qm.panel_of_pure(g), tol),
    "search_sibling": lambda g, tol: qm.search_sibling(g, tol, budget=1),
    "subset_equal": lambda g, tol: qm.subset_equal(g, g, [1], tol),
    "verify_ghz_subalgebra": lambda g, tol: qm.verify_ghz_subalgebra(
        qm.stabilizer_subalgebra(g), list(qm.classify(g).certificate.locals_), tol
    ),
}


def test_every_public_tol_is_in_the_table():
    found = set()
    for name in qm.__all__:
        obj = getattr(qm, name)
        if inspect.isclass(obj):
            for method, fn in inspect.getmembers(obj, inspect.isfunction):
                if not method.startswith("_") and "tol" in inspect.signature(fn).parameters:
                    found.add(f"{name}.{method}")
        elif inspect.isfunction(obj) and "tol" in inspect.signature(obj).parameters:
            found.add(name)
    assert found == set(TOL_CALLS)


@pytest.mark.parametrize("tol", [float("inf"), -float("inf"), float("nan"), 0.0, -1e-6])
@pytest.mark.parametrize("name", sorted(TOL_CALLS))
def test_tol_outside_zero_to_inf_is_rejected(name, tol):
    # an infinite tol once passed every margin: classify called this orbit
    # "determined", reconstruct its panel "unique" at residual 0.17, and
    # equal_up_to_phase two Haar states equal
    g = qm.random_lu_orbit(qm.ghz_state(4, 0.6, 0.8), 3)
    TOL_CALLS[name](g, 1e-6)
    with pytest.raises(ValueError, match="tol must be positive"):
        TOL_CALLS[name](g, tol)
