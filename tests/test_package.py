"""The package namespace: its public names, their home modules, and lazy loading."""

import importlib

import pytest

import qmarginal as qm
from conftest import run_fresh

# the public names and the module each one lives in, as they stood before
# the package loaded its submodules lazily
PUBLIC = {
    "classifier": (
        "Classification", "Diagnostics", "GhzCertificate", "RelativePhases", "antipodal_support_reduction",
        "classify", "degenerate_ghz_test", "diagonal_phases", "extract_local_unitary", "lu_equivalence_check",
        "phase_family", "sibling",
    ),
    "oracle": (
        "SearchReport", "chi_state", "eta_state", "ghz_state", "haar_random_ket", "random_lu_orbit",
        "random_product_ket", "search_sibling",
    ),
    "panels": (
        "PanelSubset", "RdmPanel", "panel_consistency", "panel_distance", "panel_of_mixed", "panel_of_pure",
        "panels_equal", "subset_equal",
    ),
    "reconstruct": ("PanelRankError", "ReconstructionResult", "check_panel", "purify_over_qubit", "reconstruct"),
    "stabilizer": (
        "AlgebraElement", "StabilizerBasis", "conjugate_element", "element_action", "stabilizer_subalgebra",
        "undetermined_by_dimension", "verify_ghz_subalgebra",
    ),
    "tensors": (
        "DensityMatrix", "Ket", "MultiIndex", "SchmidtSplit", "SingleQubitUnitary", "apply_local", "apply_locals",
        "basis_ket", "equal_up_to_phase", "fix_global_phase", "ket", "partial_trace", "schmidt_split",
        "spectral_decompose", "tensor_insert",
    ),
}


def test_all_is_the_pinned_list():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 55
    assert qm.__all__ == names


@pytest.mark.parametrize("home", sorted(PUBLIC))
def test_each_name_is_its_home_module_object(home):
    module = importlib.import_module(f"qmarginal.{home}")
    for name in PUBLIC[home]:
        assert getattr(qm, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(qm.__all__) <= set(dir(qm))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qmarginal import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qm.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        qm.nope
    assert not hasattr(qm, "nope")


@pytest.mark.parametrize("name", ["classifier", "io", "oracle", "stabilizer", "tensors", "tolerances"])
def test_submodules_resolve_as_attributes(name):
    assert getattr(qm, name) is importlib.import_module(f"qmarginal.{name}")


@pytest.mark.parametrize(
    "load",
    [
        "from qmarginal.reconstruct import _su2_from_rotation",
        "import importlib; importlib.import_module('qmarginal.reconstruct').DEFAULT_TOL",
        "import qmarginal.reconstruct",
    ],
)
def test_loading_the_reconstruct_module_keeps_the_function(load):
    # the import system binds a loaded submodule on its package; the
    # package keeps the public function of the same name
    run_fresh(
        f"{load}\n"
        "import sys, qmarginal as qm\n"
        "assert qm.reconstruct is sys.modules['qmarginal.reconstruct'].reconstruct, qm.reconstruct\n"
    )


def test_loading_a_module_binds_its_public_names_on_the_package():
    # so code that rebinds a module's function later (a monkeypatch, a
    # tracer) finds the package's binding of the original to rebind too
    run_fresh(
        "import qmarginal, qmarginal.panels as panels\n"
        "assert vars(qmarginal)['panel_of_pure'] is panels.panel_of_pure\n"
        "assert 'classify' not in vars(qmarginal)\n"
    )
