"""qmarginal: determination of pure states by their reduced density matrices.

Decides whether an n-qubit pure state is pinned down, among pure states,
by the panel of its (n-1)-qubit marginals; produces explicit witnesses
when it is not (certificates, panel-sharing sibling states, stabilizer
subalgebras); and reconstructs states from panels.

Importing the package loads no submodule and no numpy.  ``_EXPORTS`` maps
each public name to its home submodule, and ``__all__`` is read off it.  The
first access of a name (``qmarginal.classify``, ``from qmarginal import *``)
imports its home module; the submodules load each other as they need.
Whenever the import system binds a loaded submodule on the package, the
package binds that module's public names beside it, so each name is then
an ordinary module global.  A new public name goes in ``_EXPORTS``, and
nowhere else in this file.

One public name is also a submodule: ``reconstruct``.  The import system
binds every submodule it loads as an attribute of its package, so
``import qmarginal.reconstruct`` would replace the function with the
module.  The package's module class keeps the function.
"""

import importlib
import sys
import types

_EXPORTS = {
    "classifier": (
        "Classification",
        "Diagnostics",
        "GhzCertificate",
        "RelativePhases",
        "antipodal_support_reduction",
        "classify",
        "degenerate_ghz_test",
        "diagonal_phases",
        "extract_local_unitary",
        "lu_equivalence_check",
        "phase_family",
        "sibling",
    ),
    "oracle": (
        "SearchReport",
        "chi_state",
        "eta_state",
        "ghz_state",
        "haar_random_ket",
        "random_lu_orbit",
        "random_product_ket",
        "search_sibling",
    ),
    "panels": (
        "PanelSubset",
        "RdmPanel",
        "panel_consistency",
        "panel_distance",
        "panel_of_mixed",
        "panel_of_pure",
        "panels_equal",
        "subset_equal",
    ),
    "reconstruct": (
        "PanelRankError",
        "ReconstructionResult",
        "check_panel",
        "purify_over_qubit",
        "reconstruct",
    ),
    "stabilizer": (
        "AlgebraElement",
        "StabilizerBasis",
        "conjugate_element",
        "element_action",
        "stabilizer_subalgebra",
        "undetermined_by_dimension",
        "verify_ghz_subalgebra",
    ),
    "tensors": (
        "DensityMatrix",
        "Ket",
        "MultiIndex",
        "SchmidtSplit",
        "SingleQubitUnitary",
        "apply_local",
        "apply_locals",
        "basis_ket",
        "equal_up_to_phase",
        "fix_global_phase",
        "ket",
        "partial_trace",
        "schmidt_split",
        "spectral_decompose",
        "tensor_insert",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "io", "tolerances", "unitary_fit"}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and value.__name__ == f"{self.__name__}.{name}":
            for public in _EXPORTS.get(name, ()):
                super().__setattr__(public, getattr(value, public))
            if name in _HOME:
                return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    home = _HOME.get(name, name if name in _SUBMODULES else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return globals().setdefault(name, getattr(module, name) if name in _HOME else module)


def __dir__():
    return sorted({*globals(), *__all__})
