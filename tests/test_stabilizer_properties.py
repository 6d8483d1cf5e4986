"""Property tests of the dimension verdict: certificate first gives the
verdict of the product test followed by the full rule, on every drawn state
and on its local-unitary orbit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import qmarginal as qm  # noqa: E402
from conftest import KINDS, draw_state  # noqa: E402
from qmarginal.stabilizer import _full_rule  # noqa: E402
from qmarginal.tolerances import PRODUCT_TOL  # noqa: E402


def parent_order(psi: qm.Ket) -> str:
    """The verdict with no certificate: a one-qubit marginal's least
    eigenvalue below PRODUCT_TOL, else the full rule's dimension."""
    n = psi.n
    tensor = psi.amplitudes.reshape((2,) * n)
    for j in range(n):
        a = np.moveaxis(tensor, j, 0).reshape(2, -1)
        if np.linalg.eigvalsh(a @ a.conj().T)[0] < PRODUCT_TOL:
            return "determined"
    return "undetermined" if _full_rule(psi).dimension == n - 1 else "determined"


states = st.builds(
    draw_state,
    st.sampled_from(KINDS),
    st.sampled_from([3, 5, 6, 7, 8, 9]),
    st.integers(0, 2**20),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(states)
def test_verdict_is_the_product_test_then_the_full_rule(psi):
    verdict = qm.undetermined_by_dimension(psi)
    assert verdict == parent_order(psi)
    if verdict == "undetermined":
        assert qm.stabilizer_subalgebra(psi).dimension == psi.n - 1


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(states, st.integers(0, 2**20))
def test_verdict_is_lu_invariant(psi, seed):
    orbit = qm.random_lu_orbit(psi, seed=seed)
    assert qm.undetermined_by_dimension(orbit) == qm.undetermined_by_dimension(psi)
