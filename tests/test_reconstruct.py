"""Recovering pure states from marginal panels."""

import numpy as np
import pytest

import qmarginal as qm
from conftest import random_ghz_orbit
from qmarginal.io import load_panel, save_panel
from qmarginal.reconstruct import _su2_from_rotation
from qmarginal.tensors import PAULIS, _axis_first, _grams
from qmarginal.tolerances import HERM_TOL, RECONSTRUCT_TOL


def family_contains(result, source, tol=1e-8):
    """Is the source on the reconstructed one-parameter family?"""
    cert = result.certificate
    rotated = qm.apply_locals(cert.locals_, source).amplitudes
    a = rotated[cert.support[0].to_linear()]
    b = rotated[cert.support[1].to_linear()]
    phi = np.angle((b / a) / (cert.beta / cert.alpha))
    member = qm.phase_family(cert, phi)
    return abs(member.overlap(source)) >= 1.0 - tol


def perturbed_panel(panel, entry_index, epsilon=1e-3):
    """Bump one off-diagonal element, then restore hermiticity/PSD/trace."""
    mats = [e.entries.copy() for e in panel.entries]
    m = mats[entry_index]
    m[0, m.shape[1] - 1] += epsilon
    m = 0.5 * (m + m.conj().T)
    evals, evecs = np.linalg.eigh(m)
    evals = np.clip(evals, 0.0, None)
    m = (evecs * evals) @ evecs.conj().T
    m /= np.trace(m).real
    entries = list(panel.entries)
    entries[entry_index] = qm.DensityMatrix(entries[entry_index].qubit_labels, m)
    return qm.RdmPanel(panel.n, tuple(entries))


class TestPurifyOverQubit:
    def test_balanced_rank_two_marginal(self):
        rdm = qm.panel_of_pure(qm.ghz_state(3)).entry(1)
        candidate, degenerate = qm.purify_over_qubit(rdm, 1)
        assert degenerate
        back = qm.panel_of_pure(candidate).entry(1)
        assert np.max(np.abs(back.entries - rdm.entries)) < 1e-12

    def test_rank_one_marginal_gives_product(self):
        rdm = qm.DensityMatrix((2, 3), np.diag([1.0, 0.0, 0.0, 0.0]))
        candidate, degenerate = qm.purify_over_qubit(rdm, 1)
        assert not degenerate
        np.testing.assert_allclose(abs(candidate.amplitudes[0]), 1.0, atol=1e-12)

    def test_rank_three_is_rejected(self):
        rdm = qm.DensityMatrix((2, 3), np.diag([0.5, 0.3, 0.2, 0.0]))
        with pytest.raises(qm.PanelRankError):
            qm.purify_over_qubit(rdm, 1)

    def test_candidate_marginal_always_matches(self):
        for seed in range(3):
            psi = qm.haar_random_ket(4, 1500 + seed)
            rdm = qm.panel_of_pure(psi).entry(2)
            candidate, _ = qm.purify_over_qubit(rdm, 2)
            back = qm.panel_of_pure(candidate).entry(2)
            assert np.max(np.abs(back.entries - rdm.entries)) < 1e-12

    @pytest.mark.parametrize("entry, j", [(1, 2), (3, 1), (2, 4)])
    def test_marginal_on_other_qubits_is_rejected(self, entry, j):
        # entry 1 is on qubits 2, 3; purified over qubit 2 it would come
        # back as a marginal on qubits 1, 3
        rdm = qm.panel_of_pure(qm.haar_random_ket(3, 1510)).entry(entry)
        with pytest.raises(ValueError, match=f"omitting qubit {j} of 3"):
            qm.purify_over_qubit(rdm, j)

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        # a NaN tol once passed this rank-3 marginal's rank check and
        # returned a ket whose marginal missed it by 0.2
        rdm = qm.DensityMatrix((2, 3), np.diag([0.5, 0.3, 0.2, 0.0]))
        with pytest.raises(ValueError, match="tol must be positive"):
            qm.purify_over_qubit(rdm, 1, tol)


class TestReconstruct:
    def test_unique_names_the_unique_outcome(self):
        assert qm.reconstruct(qm.panel_of_pure(qm.haar_random_ket(3, 1520))).unique
        assert not qm.reconstruct(qm.panel_of_pure(qm.ghz_state(3, 0.6, 0.8))).unique

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_haar_round_trip(self, n):
        for seed in range(3):
            psi = qm.haar_random_ket(n, 1600 + 10 * n + seed)
            result = qm.reconstruct(qm.panel_of_pure(psi))
            assert result.outcome == "unique"
            assert abs(result.state.overlap(psi)) >= 1.0 - 1e-8
            assert result.residual <= 1e-9

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            qm.reconstruct(qm.panel_of_pure(qm.haar_random_ket(3, 1)), tol)

    def test_unbalanced_two_term_panel_gives_family(self):
        psi = qm.ghz_state(3, 0.6, 0.8)
        result = qm.reconstruct(qm.panel_of_pure(psi))
        assert result.outcome == "ghz-family"
        assert sorted(
            [abs(result.certificate.alpha), abs(result.certificate.beta)]
        ) == pytest.approx([0.6, 0.8], abs=1e-9)
        assert family_contains(result, psi)

    def test_partial_panel_example_state_is_unique(self):
        chi = qm.chi_state()
        result = qm.reconstruct(qm.panel_of_pure(chi))
        assert result.outcome == "unique"
        assert abs(result.state.overlap(chi)) >= 1.0 - 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rotated_orbit_panels_give_families(self, n):
        orbit, _ = random_ghz_orbit(n, 1700 + n)
        result = qm.reconstruct(qm.panel_of_pure(orbit))
        assert result.outcome == "ghz-family"
        assert family_contains(result, orbit)
        assert result.residual <= 1e-9

    @pytest.mark.parametrize("n", [9, 10])
    def test_round_trip_at_the_stated_reach(self, n):
        psi = qm.haar_random_ket(n, 1750 + n)
        result = qm.reconstruct(qm.panel_of_pure(psi))
        assert result.outcome == "unique"
        phase = result.state.overlap(psi)
        assert np.abs(result.state.amplitudes * phase / abs(phase) - psi.amplitudes).max() <= 1e-12
        orbit, _ = random_ghz_orbit(n, 1760 + n)
        result = qm.reconstruct(qm.panel_of_pure(orbit))
        assert result.outcome == "ghz-family"
        assert result.residual <= RECONSTRUCT_TOL

    def test_balanced_orbit_panel_gives_family(self):
        orbit, _ = random_ghz_orbit(4, 1800, balanced=True)
        result = qm.reconstruct(qm.panel_of_pure(orbit))
        assert result.outcome == "ghz-family"
        assert family_contains(result, orbit)

    def test_cluster_type_panel_is_unique(self):
        cluster = qm.ket([1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1], 4)
        result = qm.reconstruct(qm.panel_of_pure(cluster))
        assert result.outcome == "unique"
        assert abs(result.state.overlap(cluster)) >= 1.0 - 1e-8

    def test_pair_of_pairs_panel_is_unique(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        psi = qm.Ket(4, np.kron(bell, bell))
        result = qm.reconstruct(qm.panel_of_pure(psi))
        assert result.outcome == "unique"
        assert abs(result.state.overlap(psi)) >= 1.0 - 1e-8

    def test_product_panel_is_unique(self):
        psi = qm.random_product_ket(4, 19)
        result = qm.reconstruct(qm.panel_of_pure(psi))
        assert result.outcome == "unique"
        assert abs(result.state.overlap(psi)) >= 1.0 - 1e-8

    def test_two_qubit_panels(self):
        # entangled: the panel admits the full one-parameter family
        bell = qm.ket([1, 0, 0, 1])
        result = qm.reconstruct(qm.panel_of_pure(bell))
        assert result.outcome == "ghz-family"
        partial = qm.ket([0.6, 0, 0, 0.8])
        result = qm.reconstruct(qm.panel_of_pure(partial))
        assert result.outcome == "ghz-family"
        assert family_contains(result, partial)
        # product: unique
        product = qm.random_product_ket(2, 7)
        result = qm.reconstruct(qm.panel_of_pure(product))
        assert result.outcome == "unique"
        assert abs(result.state.overlap(product)) >= 1.0 - 1e-8

    def test_rank_three_entry_is_incompatible(self):
        psi = qm.haar_random_ket(3, 91)
        panel = qm.panel_of_pure(psi)
        entries = list(panel.entries)
        entries[1] = qm.DensityMatrix((1, 3), np.diag([0.5, 0.3, 0.2, 0.0]))
        bad = qm.RdmPanel(3, tuple(entries))
        result = qm.reconstruct(bad)
        assert result.outcome == "incompatible"
        assert "entry 2" in result.reason and "rank" in result.reason

    @pytest.mark.parametrize("entry_index", [0, 1])
    def test_perturbed_panel_is_flagged(self, entry_index):
        psi = qm.haar_random_ket(3, 92)
        bad = perturbed_panel(qm.panel_of_pure(psi), entry_index)
        result = qm.reconstruct(bad)
        assert result.outcome == "incompatible" or result.residual > 1e-9

    def test_perturbed_degenerate_panel_is_flagged(self):
        bad = perturbed_panel(qm.panel_of_pure(qm.ghz_state(3)), 1)
        result = qm.reconstruct(bad)
        assert result.outcome == "incompatible" or result.residual > 1e-9

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-10])
    def test_third_amplitude_decides_between_outcomes(self, eps):
        # 0.6|0..0> + 0.8|1..1> + eps|0..01>: the Bloch matrix over qubit 1
        # has s[1] of about 1.3 eps^2, on either side of the rank cutoff
        for n in (3, 4, 5):
            amps = np.zeros(2**n, dtype=complex)
            amps[0], amps[-1], amps[1] = 0.6, 0.8, eps
            psi = qm.random_lu_orbit(qm.Ket(n, amps / np.linalg.norm(amps)), 2300 + n)
            result = qm.reconstruct(qm.panel_of_pure(psi))
            assert result.residual <= 1e-9
            if eps >= 1e-6:
                assert result.outcome == "unique"
                assert qm.equal_up_to_phase(result.state, psi, 1e-8)
            else:
                assert qm.classify(psi).ghz_class
                assert result.outcome == "ghz-family"

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("scale, outcome", [(2.0, "incompatible"), (0.5, "unique")])
    def test_rank_excess_in_a_loaded_entry(self, tmp_path, n, scale, outcome):
        # delta |v><v| mixed into entry 2, v outside its range: its third
        # eigenvalue is delta, on either side of tol
        psi = qm.haar_random_ket(n, 2400 + n)
        panel = qm.panel_of_pure(psi)
        rho = panel.entry(2).entries
        v = np.linalg.eigh(rho)[1][:, 0]
        delta = scale * RECONSTRUCT_TOL
        entries = list(panel.entries)
        entries[1] = qm.DensityMatrix(entries[1].qubit_labels, (1 - delta) * rho + delta * np.outer(v, v.conj()))
        dense = qm.RdmPanel(n, tuple(entries))
        save_panel(tmp_path / "panel.txt", dense)
        loaded = load_panel(tmp_path / "panel.txt")
        result = qm.reconstruct(loaded)
        assert result.outcome == outcome
        # the same reason as the eigensolve of the in-memory entries
        assert result.reason == qm.reconstruct(dense).reason
        if outcome == "incompatible":
            assert result.reason == f"entry 2 has rank > 2 (third eigenvalue {delta:.3e})"
        else:
            assert qm.equal_up_to_phase(result.state, psi, 1e-8)
        # a remainder above HERM_TOL certifies nothing at load: the entry
        # keeps no factor and its readers take the eigensolve
        assert loaded.entry(2)._factor is None

    @pytest.mark.parametrize("n", [3, 6])
    def test_loaded_full_rank_panel_keeps_its_reason(self, tmp_path, n):
        rng = np.random.default_rng(2500 + n)
        g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        rho = g @ g.conj().T
        panel = qm.panel_of_mixed(qm.DensityMatrix(tuple(range(1, n + 1)), rho / np.trace(rho).real))
        save_panel(tmp_path / "panel.txt", panel)
        loaded = load_panel(tmp_path / "panel.txt")
        assert all(e._factor is None for e in loaded.entries)  # too far from rank 2 to keep one
        result = qm.reconstruct(loaded)
        assert result.outcome == "incompatible"
        assert result.reason == qm.reconstruct(panel).reason
        assert result.reason.startswith("entry 1 has rank > 2 (third eigenvalue ")

    @pytest.mark.parametrize("n", [6, 7])
    def test_loaded_degenerate_and_rank_one_entries(self, tmp_path, n):
        balanced, _ = random_ghz_orbit(n, 2600 + n, balanced=True)
        product = qm.random_product_ket(n, 2610 + n)
        for psi, outcome in ((balanced, "ghz-family"), (product, "unique")):
            save_panel(tmp_path / "panel.txt", qm.panel_of_pure(psi))
            loaded = load_panel(tmp_path / "panel.txt")
            assert all(e._factor is not None and e._remainder <= HERM_TOL for e in loaded.entries)
            result = qm.reconstruct(loaded)
            assert result.outcome == outcome
            if outcome == "unique":
                assert qm.equal_up_to_phase(result.state, psi, 1e-8)
            else:
                assert family_contains(result, psi)

    @pytest.mark.parametrize("kind", ["haar", "ghz-orbit", "product"])
    def test_pure_panels_need_no_dense_eigensolve(self, tmp_path, monkeypatch, kind):
        n, d = 8, 128
        psi = {
            "haar": lambda: qm.haar_random_ket(n, 2700),
            "ghz-orbit": lambda: random_ghz_orbit(n, 2701)[0],
            "product": lambda: qm.random_product_ket(n, 2702),
        }[kind]()
        save_panel(tmp_path / "panel.txt", qm.panel_of_pure(psi))
        dense = []
        for name in ("eigvalsh", "eigh", "svd"):
            def counted(a, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                if np.shape(a)[-2:] == (d, d):
                    dense.append(_name)
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        from_file = qm.reconstruct(load_panel(tmp_path / "panel.txt"))
        in_memory = qm.reconstruct(qm.panel_of_pure(psi))
        assert dense == []
        assert from_file.outcome == in_memory.outcome != "incompatible"

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_family_verdict_is_classify_across_the_flip(self, n):
        # the eps states 0.6|0..0> + 0.8|1..1> + eps|0..01>, LU-rotated:
        # classify flips near eps = 8.8e-9, inside the sweep
        sweep = [*np.geomspace(1e-12, 1e-5, 15), 8e-9, 8.8e-9, 9.5e-9]
        verdicts = set()
        for eps in sweep:
            amps = np.zeros(2**n, dtype=complex)
            amps[0], amps[-1], amps[1] = 0.6, 0.8, eps
            for seed in (0, 1):
                psi = qm.random_lu_orbit(qm.Ket(n, amps / np.linalg.norm(amps)), seed)
                result = qm.reconstruct(qm.panel_of_pure(psi))
                if result.state is None:
                    continue
                ghz_class = qm.classify(psi).ghz_class
                assert (result.outcome == "ghz-family") == ghz_class, (eps, seed)
                verdicts.add(ghz_class)
        assert verdicts == {True, False}

    def test_outcomes_match_classification(self):
        cases = [
            qm.haar_random_ket(4, 93),
            random_ghz_orbit(4, 94)[0],
            qm.random_product_ket(4, 95),
        ]
        for psi in cases:
            result = qm.reconstruct(qm.panel_of_pure(psi))
            assert (result.outcome == "ghz-family") == qm.classify(psi).ghz_class


def eps_state(n, eps, seed):
    """An LU orbit of 0.6|0..0> + 0.8|1..1> + eps|0..01>, normalized."""
    amps = np.zeros(2**n, dtype=complex)
    amps[0], amps[-1], amps[1] = 0.6, 0.8, eps
    return qm.random_lu_orbit(qm.Ket(n, amps / np.linalg.norm(amps)), seed)


# the stated accuracy of a unique answer near the GHZ class: 1 - |<psi|phi>|^2
# of the source psi and the returned phi.  Measured at most 1.4e-15 on the
# eps states at n = 3-6 and 8, eps from 1e-6 to 1e-12; a turn about the
# leading axis fitted from the squared product reached 4.7e-2 at n = 6
NEAR_GHZ_INFIDELITY = 1e-14


def assert_recovers(psi, result):
    assert result.outcome != "incompatible", result.reason
    assert result.residual <= RECONSTRUCT_TOL
    if result.outcome == "unique":
        assert 1.0 - abs(result.state.overlap(psi)) ** 2 <= NEAR_GHZ_INFIDELITY
    else:
        assert family_contains(result, psi)


class TestNearGhzClass:
    """The eps states, whose Bloch matrix over qubit 1 has two O(eps)
    singular values beside an O(1) one."""

    # pure panels that a turn fitted from the squared product T S^T left
    # incompatible, with residual 1.05e-9 to 1.96e-9 (eps from
    # np.logspace(-6, -10, 41))
    @pytest.mark.parametrize("n, eps, seed", [
        (3, 6.309573444801943e-09, 2),
        (3, 3.981071705534969e-09, 5),
        (4, 3.981071705534969e-08, 2),
        (4, 1.584893192461114e-08, 2),
        (4, 1.2589254117941661e-08, 0),
        (4, 6.309573444801943e-09, 0),
        (4, 6.309573444801943e-09, 1),
        (4, 5.011872336272715e-09, 2),
        (5, 1.9952623149688786e-08, 3),
        (5, 1e-08, 2),
    ])
    def test_panel_once_incompatible_is_recovered(self, n, eps, seed):
        psi = eps_state(n, eps, seed)
        assert_recovers(psi, qm.reconstruct(qm.panel_of_pure(psi)))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_every_pure_panel_is_recovered(self, n):
        # a quarter decade apart, across classify's flip near eps = 8.8e-9
        outcomes = set()
        for eps in np.logspace(-6, -12, 25):
            for seed in (0, 1):
                psi = eps_state(n, eps, seed)
                result = qm.reconstruct(qm.panel_of_pure(psi))
                assert_recovers(psi, result)
                outcomes.add(result.outcome)
        assert outcomes == {"unique", "ghz-family"}


def _kron(*kets):
    amps = np.ones(1, dtype=complex)
    for k in kets:
        amps = np.kron(amps, k.amplitudes)
    return qm.Ket(sum(k.n for k in kets), amps)


BELL = qm.ket([1, 0, 0, 1])
CLUSTER = qm.ket([1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1], 4)


class TestDegenerateBranch:
    """The closed-form transport on panels whose every entry is degenerate,
    and the fit residual that rejects a turned entry."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_balanced_orbits_give_families(self, n):
        for seed in (1900 + 10 * n, 1901 + 10 * n):
            orbit, _ = random_ghz_orbit(n, seed, balanced=True)
            panel = qm.panel_of_pure(orbit)
            result = qm.reconstruct(panel)
            assert result.outcome == "ghz-family"
            assert result.residual <= 1e-9
            if n > 2:
                assert family_contains(result, orbit)
            else:
                # (I/2, I/2) is the panel of every maximally entangled pair,
                # a three-parameter set; the certificate's family is one
                # line through the representative
                for phi in (0.4, 2.1):
                    member = qm.phase_family(result.certificate, phi)
                    assert qm.check_panel(member, panel) <= 1e-9

    @pytest.mark.parametrize(
        "name, source",
        [
            ("bell-bell", _kron(BELL, BELL)),
            ("cluster", CLUSTER),
            ("bell-ghz3", _kron(BELL, qm.ghz_state(3))),
            ("ghz3-bell", _kron(qm.ghz_state(3), BELL)),
        ],
    )
    def test_rotated_degenerate_non_ghz_states_are_unique(self, name, source):
        for seed in range(2000, 2003):
            psi = qm.random_lu_orbit(source, seed)
            result = qm.reconstruct(qm.panel_of_pure(psi))
            assert result.outcome == "unique", name
            assert qm.equal_up_to_phase(result.state, psi, 1e-8), name
            assert result.residual <= 1e-9

    @pytest.mark.parametrize("source", ["balanced-ghz", "haar"])
    def test_entry_rotated_by_one_milliradian_is_incompatible(self, source):
        if source == "haar":
            psi = qm.haar_random_ket(4, 2101)
            # qubit 1's own Bloch axis: the turn keeps every one-qubit
            # marginal, so only the fit residual can reject the panel
            rho1 = _grams(_axis_first(psi.amplitudes, 1))
            axis = np.real([np.trace(rho1 @ p) for p in PAULIS])
            axis = axis / np.linalg.norm(axis)
        else:
            psi, _ = random_ghz_orbit(4, 2100, balanced=True)
            axis = np.array([0.6, -0.48, 0.64])
        panel = qm.panel_of_pure(psi)
        u = np.cos(5e-4) * np.eye(2) - 1j * np.sin(5e-4) * np.einsum("a,aij->ij", axis, PAULIS)
        big = np.kron(u, np.eye(4))  # qubit 1 is the first axis of entry 3
        entries = list(panel.entries)
        rotated = big @ entries[2].entries @ big.conj().T
        entries[2] = qm.DensityMatrix(entries[2].qubit_labels, 0.5 * (rotated + rotated.conj().T))
        result = qm.reconstruct(qm.RdmPanel(4, tuple(entries)))
        assert result.outcome == "incompatible"
        assert result.reason.startswith("no unitary freedom reproduces the panel (best ")
        assert result.residual > 1e-9

    @pytest.mark.parametrize(
        "axis",
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.36, -0.48, 0.8)],
    )
    def test_su2_lift_is_exact_at_half_turns(self, axis):
        axis = np.array(axis) / np.linalg.norm(axis)
        rot = 2.0 * np.outer(axis, axis) - np.eye(3)  # half-turn about axis
        u = _su2_from_rotation(rot)
        assert abs(np.trace(u)) < 1e-12
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        for a in range(3):
            image = sum(rot[b, a] * PAULIS[b] for b in range(3))
            np.testing.assert_allclose(u @ PAULIS[a] @ u.conj().T, image, atol=1e-12)

    def test_su2_lift_of_random_rotations(self):
        rng = np.random.default_rng(2200)
        for _ in range(20):
            q, r = np.linalg.qr(rng.standard_normal((3, 3)))
            rot = q * np.sign(np.diag(r))
            if np.linalg.det(rot) < 0:
                rot = -rot
            u = _su2_from_rotation(rot)
            for a in range(3):
                image = sum(rot[b, a] * PAULIS[b] for b in range(3))
                np.testing.assert_allclose(u @ PAULIS[a] @ u.conj().T, image, atol=1e-12)


class TestCheckPanel:
    def test_own_panel_is_exact(self):
        psi = qm.haar_random_ket(4, 96)
        assert qm.check_panel(psi, qm.panel_of_pure(psi)) < 1e-12

    def test_sibling_panel_is_exact(self):
        g = qm.ghz_state(3)
        partner = qm.sibling(g, qm.classify(g).certificate)
        assert qm.check_panel(g, qm.panel_of_pure(partner)) < 1e-12

    def test_distinct_states_have_half_unit_gap(self):
        # both panels are diagonal; the largest entry gap is |1 - 1/2|
        dist = qm.check_panel(qm.basis_ket(3, 0), qm.panel_of_pure(qm.ghz_state(3)))
        assert dist == pytest.approx(0.5, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            qm.check_panel(qm.basis_ket(2, 0), qm.panel_of_pure(qm.ghz_state(3)))
