"""Property tests of the dichotomy across the package: the classifier's
verdict is local-unitary invariant, reconstructing a pure panel agrees with
it, every member of a certificate's family shares the state's panel, and
every certificate local is a unitary, though ``classify`` builds them with
no check."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import qmarginal as qm  # noqa: E402
from conftest import EPSILONS, KINDS, draw_state, eps_state  # noqa: E402
from qmarginal.tolerances import UNITARY_TOL  # noqa: E402

QUBITS = [3, 4, 5, 6, 7, 8]
SEEDS = st.integers(0, 2**20)

states = st.builds(draw_state, st.sampled_from(KINDS), st.sampled_from(QUBITS), SEEDS)
ghz_states = st.builds(
    draw_state, st.sampled_from(["ghz-orbit", "ghz-orbit-balanced"]), st.sampled_from(QUBITS), SEEDS
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(states, SEEDS)
def test_verdict_and_branch_are_lu_invariant(psi, seed):
    cls = qm.classify(psi)
    orbit = qm.classify(qm.random_lu_orbit(psi, seed=seed))
    assert orbit.verdict == cls.verdict
    assert orbit.diagnostics.branch == cls.diagnostics.branch


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(states)
def test_reconstruction_returns_the_state_or_its_family(psi):
    result = qm.reconstruct(qm.panel_of_pure(psi))
    assert result.outcome == ("ghz-family" if qm.classify(psi).ghz_class else "unique")
    if result.unique:
        assert qm.equal_up_to_phase(result.state, psi)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(ghz_states, st.floats(0.0, 2 * np.pi))
def test_family_members_share_the_panel(psi, phi):
    cert = qm.classify(psi).certificate
    assert cert is not None
    member = qm.phase_family(cert, phi)
    assert qm.panels_equal(qm.panel_of_pure(member), qm.panel_of_pure(psi), 1e-10)


def assert_locals_are_unitary(cert):
    for u in cert.locals_:
        assert np.isfinite(u.entries).all()
        assert not u.entries.flags.writeable
        assert np.max(np.abs(u.entries @ u.entries.conj().T - np.eye(2))) <= UNITARY_TOL


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(states)
def test_certificate_locals_are_unitary(psi):
    cert = qm.classify(psi).certificate
    if cert is not None:
        assert_locals_are_unitary(cert)


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("n", QUBITS)
def test_certificate_locals_of_near_ghz_states_are_unitary(family, n):
    certified = 0
    for eps in EPSILONS:
        for seed in range(3):
            cert = qm.classify(eps_state(family, n, eps, 4000 + 10 * n + seed)).certificate
            if cert is not None:
                certified += 1
                assert_locals_are_unitary(cert)
    # eps <= 1e-9 is below the classifier's tol on both families
    assert certified >= 9
