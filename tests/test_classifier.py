"""Classification, certificates, siblings, and transports."""

import numpy as np
import pytest

import qmarginal as qm
from conftest import eps_state, random_ghz_orbit
from qmarginal.oracle import random_unitary_2x2
from qmarginal.tensors import PAULI_Z
from qmarginal.classifier import _certificate_from_bases
from qmarginal.tolerances import CLASSIFY_TOL, DEGENERACY_TOL, PHASE_CONDITION_FLOOR, PHASE_CONDITION_TOL


def rotated_amplitudes(psi, cert):
    return qm.apply_locals(cert.locals_, psi).amplitudes


class TestClassify:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_recovers_constructed_orbit_amplitudes(self, n):
        for i in range(4):
            orbit, alpha_mag = random_ghz_orbit(n, 4000 + 100 * n + 7 * i)
            cls = qm.classify(orbit)
            assert cls.ghz_class
            got = sorted([abs(cls.certificate.alpha), abs(cls.certificate.beta)])
            want = sorted([alpha_mag, np.sqrt(1 - alpha_mag**2)])
            np.testing.assert_allclose(got, want, atol=1e-7)

    def test_w_state_is_determined(self):
        w = qm.ket([0, 1, 1, 0, 1, 0, 0, 0])
        cls = qm.classify(w)
        assert not cls.ghz_class
        # equal non-degenerate spectra, but the support is not antipodal
        np.testing.assert_allclose(cls.diagnostics.spectra[:, 0], 2 / 3, atol=1e-12)
        assert cls.diagnostics.branch == "non-degenerate"

    def test_single_qubit_factor_is_determined(self):
        amps = np.kron([1, 0], qm.ket([1, 0, 0, 1]).amplitudes)
        cls = qm.classify(qm.Ket(3, amps))
        assert not cls.ghz_class
        assert cls.diagnostics.branch == "pure-marginal"

    def test_two_qubit_policy(self):
        assert qm.classify(qm.ket([1, 0, 0, 1])).ghz_class  # maximally entangled
        assert qm.classify(qm.ket([0.6, 0, 0, 0.8])).ghz_class  # partially entangled
        assert not qm.classify(qm.basis_ket(2, 2)).ghz_class  # product
        with pytest.raises(ValueError):
            qm.classify(qm.basis_ket(1, 0))

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        # a NaN tol passes every margin, so a Haar state came out ghz-class
        with pytest.raises(ValueError, match="tol"):
            qm.classify(qm.haar_random_ket(3, 1), tol)

    def test_verdict_is_lu_invariant(self):
        for seed, psi in enumerate(
            [qm.ghz_state(4), qm.haar_random_ket(4, 21), qm.chi_state()]
        ):
            orbit = qm.random_lu_orbit(psi, seed=6000 + seed)
            assert qm.classify(orbit).ghz_class == qm.classify(psi).ghz_class

    def test_spectra_are_read_only_descending_rows(self):
        for psi in (qm.haar_random_ket(5, 31), random_ghz_orbit(4, 32)[0], qm.ghz_state(3)):
            spectra = qm.classify(psi).diagnostics.spectra
            assert spectra.shape == (psi.n, 2)
            assert spectra.flags.c_contiguous
            assert not spectra.flags.writeable
            assert np.all(spectra[:, 0] >= spectra[:, 1])
            with pytest.raises(ValueError):
                spectra[0, 0] = 0.0

    def test_ghz_class_spectra_match_certificate_weights(self):
        orbit, _ = random_ghz_orbit(5, 4321)
        cls = qm.classify(orbit)
        weights = sorted([abs(cls.certificate.alpha) ** 2, abs(cls.certificate.beta) ** 2])
        for j in range(5):
            got = sorted(cls.diagnostics.spectra[j])
            np.testing.assert_allclose(got, weights, atol=1e-8)

    def test_certificate_soundness(self):
        for n in (3, 4, 6):
            orbit, _ = random_ghz_orbit(n, 5100 + n)
            cls = qm.classify(orbit)
            rotated = rotated_amplitudes(orbit, cls.certificate)
            keep = {m.to_linear() for m in cls.certificate.support}
            off = np.array(
                [abs(c) for i, c in enumerate(rotated) if i not in keep]
            )
            assert off.max() < 1e-8
            partner = qm.sibling(orbit, cls.certificate)
            assert qm.panels_equal(
                qm.panel_of_pure(orbit), qm.panel_of_pure(partner), 1e-8
            )


class TestGhzCertificate:
    def certificate_parts(self, n=3):
        cert = qm.classify(random_ghz_orbit(n, 4242)[0]).certificate
        return list(cert.locals_), cert.alpha, cert.beta, cert.support

    def test_rebuilt_from_its_parts(self):
        locals_, alpha, beta, support = self.certificate_parts()
        assert qm.GhzCertificate(locals_, alpha, beta, support).n == 3

    def test_rejects_locals_out_of_label_order(self):
        locals_, alpha, beta, support = self.certificate_parts()
        locals_[0], locals_[1] = locals_[1], locals_[0]
        with pytest.raises(ValueError, match="label order"):
            qm.GhzCertificate(locals_, alpha, beta, support)

    @pytest.mark.parametrize("bits", [2, 4])
    def test_rejects_support_whose_length_is_not_n(self, bits):
        locals_, alpha, beta, _ = self.certificate_parts()
        first = qm.MultiIndex((0,) * bits)
        with pytest.raises(ValueError, match="bits"):
            qm.GhzCertificate(locals_, alpha, beta, (first, first.complement()))

    # _certificate_from_bases rejects a rotated state with mass off its
    # top antipodal pair, and one whose second amplitude is zero
    @pytest.mark.parametrize(
        "psi", [qm.haar_random_ket(3, 5), qm.basis_ket(3, 0)], ids=["off-support", "beta-zero"]
    )
    def test_bases_that_give_no_certificate(self, psi):
        identity = [np.eye(2, dtype=complex)] * 3
        assert _certificate_from_bases(psi, identity, CLASSIFY_TOL) is None


class TestDegenerateBranch:
    def test_balanced_four_qubit_support(self):
        cert = qm.degenerate_ghz_test(qm.ghz_state(4))
        assert cert is not None
        assert cert.support[0].to_linear() in (0, 15)
        assert {m.to_linear() for m in cert.support} == {0, 15}

    def test_cluster_type_state_has_no_certificate(self):
        # all one-qubit marginals are maximally mixed, yet the span carried
        # by qubits 2..4 contains no pair of fully-product vectors
        cluster = qm.ket([1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1], 4)
        assert qm.degenerate_ghz_test(cluster) is None
        assert not qm.classify(cluster).ghz_class
        # cross-check with the brute-force search
        report = qm.search_sibling(cluster)
        assert not report.found

    def test_bell_pair_certificate(self):
        cert = qm.degenerate_ghz_test(qm.ket([1, 0, 0, 1]))
        assert cert is not None
        assert {m.to_linear() for m in cert.support} == {0, 3}

    def test_rotated_balanced_orbits(self):
        for n in (3, 4, 5, 8, 12):
            orbit, _ = random_ghz_orbit(n, 5200 + n, balanced=True)
            cert = qm.degenerate_ghz_test(orbit)
            assert cert is not None
            np.testing.assert_allclose(abs(cert.alpha), np.sqrt(0.5), atol=1e-7)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            qm.degenerate_ghz_test(qm.ket([0.6, 0, 0, 0.8]))

    def test_balanced_pair_of_pairs_has_no_certificate(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        psi = qm.Ket(4, np.kron(bell, bell))
        assert qm.degenerate_ghz_test(psi) is None

    def test_weight_gap_past_the_degeneracy_threshold_is_rejected(self):
        # weights 0.5 +- 7.5e-9: a gap of 1.5e-8 > DEGENERACY_TOL, so classify
        # calls no qubit degenerate; the largest entry of Gram - I/2 is only
        # half the gap, 7.5e-9, which once let the state through
        psi = qm.ghz_state(3, np.sqrt(0.5 + 7.5e-9), np.sqrt(0.5 - 7.5e-9))
        assert not any(qm.classify(psi).diagnostics.degenerate)
        with pytest.raises(ValueError, match="marginal of qubit 1 is not maximally mixed"):
            qm.degenerate_ghz_test(psi)

    @pytest.mark.parametrize("tol", [1e-8, 1e-6])
    @pytest.mark.parametrize("ratio", [0.5, 0.9, 0.99, 1.01, 1.1, 2.0])
    def test_precondition_is_classify_degeneracy(self, ratio, tol):
        # raises exactly when some qubit's weight gap is not below DEGENERACY_TOL
        gap = ratio * DEGENERACY_TOL
        source = qm.ghz_state(4, np.sqrt(0.5 + gap / 2), np.sqrt(0.5 - gap / 2))
        for psi in (source, qm.random_lu_orbit(source, seed=5300)):
            degenerate = qm.classify(psi, tol).diagnostics.degenerate
            assert all(degenerate) == (ratio < 1)
            if all(degenerate):
                assert qm.degenerate_ghz_test(psi, tol) is not None
            else:
                with pytest.raises(ValueError, match="not maximally mixed"):
                    qm.degenerate_ghz_test(psi, tol)


class TestSiblingAndFamily:
    def test_balanced_three_qubit_sibling(self):
        g = qm.ghz_state(3)
        cert = qm.classify(g).certificate
        partner = qm.sibling(g, cert)
        expected = np.zeros(8, dtype=complex)
        expected[0], expected[7] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        overlap = abs(np.vdot(expected, partner.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_unbalanced_sibling_shares_the_panel(self):
        psi = qm.ghz_state(3, 0.6, 0.8)
        cert = qm.classify(psi).certificate
        partner = qm.sibling(psi, cert)
        assert not qm.equal_up_to_phase(psi, partner)
        assert qm.panels_equal(qm.panel_of_pure(psi), qm.panel_of_pure(partner), 1e-12)

    def test_family_phase_zero_is_the_source(self):
        orbit, _ = random_ghz_orbit(4, 77)
        cert = qm.classify(orbit).certificate
        member = qm.phase_family(cert, 0.0)
        assert qm.equal_up_to_phase(member, orbit, 1e-9)

    def test_family_phase_pi_is_the_sibling(self):
        orbit, _ = random_ghz_orbit(4, 78)
        cert = qm.classify(orbit).certificate
        assert qm.equal_up_to_phase(
            qm.phase_family(cert, np.pi), qm.sibling(orbit, cert), 1e-9
        )

    def test_family_members_are_distinct_with_equal_panels(self):
        orbit, _ = random_ghz_orbit(3, 79)
        cert = qm.classify(orbit).certificate
        panel = qm.panel_of_pure(orbit)
        for phi in (0.9, 2.1, 4.4):
            member = qm.phase_family(cert, phi)
            assert not qm.equal_up_to_phase(member, orbit)
            assert qm.panels_equal(panel, qm.panel_of_pure(member), 1e-8)

    def test_sibling_rejects_foreign_certificate(self):
        cert = qm.classify(qm.ghz_state(3)).certificate
        with pytest.raises(ValueError):
            qm.sibling(qm.ket([0, 1, 1, 0, 1, 0, 0, 0]), cert)


class TestExtractLocalUnitary:
    def test_sibling_pair_gives_sign_flip_on_any_qubit(self):
        g = qm.ghz_state(3)
        partner = qm.sibling(g, qm.classify(g).certificate)
        for j in (1, 2, 3):
            transport = qm.extract_local_unitary(g, partner, j)
            # diagonal sign flip up to a global phase
            mat = transport.entries
            assert abs(mat[0, 1]) < 1e-9 and abs(mat[1, 0]) < 1e-9
            assert abs(mat[0, 0] + mat[1, 1]) < 1e-9

    @pytest.mark.parametrize("kind", ["haar", "bell-bell", "product"])
    def test_identity_for_equal_states(self, kind):
        # Haar: a non-degenerate marginal; Bell x Bell: every marginal
        # maximally mixed; product: a rank-1 marginal, where the transport
        # is not unique and only its action on psi is pinned
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        psi = {
            "haar": lambda: qm.haar_random_ket(4, 91),
            "bell-bell": lambda: qm.random_lu_orbit(qm.Ket(4, np.kron(bell, bell)), 92),
            "product": lambda: qm.random_product_ket(4, 93),
        }[kind]()
        for j in range(1, 5):
            transport = qm.extract_local_unitary(psi, psi, j)
            assert qm.equal_up_to_phase(qm.apply_local(transport, psi), psi, 1e-12)
            if kind == "haar":
                assert abs(abs(np.trace(transport.entries)) - 2.0) < 1e-9

    def test_balanced_two_term_pair_gives_phase_ratio(self):
        e1 = qm.eta_state(3, np.exp(1j * 0.5))
        e2 = qm.eta_state(3, np.exp(1j * 2.2))
        transport = qm.extract_local_unitary(e1, e2, 1)
        mat = transport.entries / transport.entries[0, 0]
        np.testing.assert_allclose(mat[1, 1], np.exp(1j * 1.7), atol=1e-9)
        assert abs(mat[0, 1]) < 1e-9

    @pytest.mark.parametrize("balanced", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_round_trip_on_generated_pairs(self, n, balanced):
        orbit, _ = random_ghz_orbit(n, 9000 + n, balanced)
        cert = qm.classify(orbit).certificate
        partner = qm.sibling(orbit, cert)
        for j in range(1, n + 1):
            transport = qm.extract_local_unitary(orbit, partner, j)
            moved = qm.apply_local(transport, orbit)
            assert abs(moved.overlap(partner)) > 1.0 - 1e-8

    def test_rejects_unrelated_states(self):
        with pytest.raises(ValueError):
            qm.extract_local_unitary(qm.haar_random_ket(3, 1), qm.haar_random_ket(3, 2), 1)

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        # a NaN tol once returned a "transport" between unrelated states
        a, b = qm.haar_random_ket(3, 1), qm.haar_random_ket(3, 2)
        with pytest.raises(ValueError, match="tol must be positive"):
            qm.extract_local_unitary(a, b, 1, tol)


class TestAntipodalReduction:
    def test_quarter_turn_phases(self):
        # independent evaluation of the consistency condition over all
        # 8 indices: bits must agree everywhere or disagree everywhere
        pairs = [(0.0, np.pi / 2)] * 3
        expected = set()
        for idx in range(8):
            bits = [(idx >> (2 - j)) & 1 for j in range(3)]
            good = all(
                abs(np.exp(1j * ((-1) ** bits[j] - (-1) ** bits[k]) * np.pi / 2) - 1)
                < 1e-12
                for j in range(3)
                for k in range(3)
            )
            if good:
                expected.add(idx)
        assert expected == {0, 7}
        allowed = qm.antipodal_support_reduction(qm.ghz_state(3), pairs)
        assert {m.to_linear() for m in allowed} == expected

    def test_phases_from_a_sibling_pair(self):
        g = qm.ghz_state(4)
        partner = qm.sibling(g, qm.classify(g).certificate)
        phases = []
        for j in range(1, 5):
            transport = qm.extract_local_unitary(g, partner, j)
            ph, _ = qm.diagonal_phases(transport)
            assert abs(np.sin(ph.beta_j)) > 1e-8
            phases.append(ph)
        allowed = qm.antipodal_support_reduction(g, phases)
        assert {m.to_linear() for m in allowed} == {0, 15}

    def test_mixed_agreement_is_excluded(self):
        pairs = [(0.0, np.pi / 2)] * 3
        allowed = {m.to_linear() for m in qm.antipodal_support_reduction(qm.ghz_state(3), pairs)}
        for idx in (1, 2, 3, 4, 5, 6):  # agree somewhere, disagree elsewhere
            assert idx not in allowed

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            qm.antipodal_support_reduction(qm.ghz_state(3), [(0.0, np.pi / 2)] * 3, tol)

    def test_scalar_transport_rejected(self):
        with pytest.raises(ValueError):
            qm.antipodal_support_reduction(qm.ghz_state(3), [(0.1, 0.0)] * 3)

    # below PHASE_CONDITION_FLOOR a |sin beta_j| of 1e-10 passes the scalar
    # check, yet the phase test reads that transport as scalar
    def test_nearly_scalar_transports_admit_every_index(self):
        with pytest.raises(ValueError, match="phase condition admits 8 indices; not antipodal"):
            qm.antipodal_support_reduction(qm.ghz_state(3), [(0.0, 1e-10)] * 3, 1e-12)

    def test_one_nearly_scalar_transport_admits_a_non_antipodal_pair(self):
        with pytest.raises(ValueError, match="phase condition admits a non-antipodal pair"):
            qm.antipodal_support_reduction(qm.ghz_state(2), [(1.0, 1e-10), (0.0, 1.0)], 1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_the_loop_over_indices_and_pairs(self, n):
        tol = PHASE_CONDITION_TOL
        rng = np.random.default_rng(40 + n)
        for case in range(32):
            if case % 4 == 0:  # generic phases: no index is allowed
                a, b = rng.uniform(-np.pi, np.pi, (2, n))
            elif case % 4 == 1:  # a_j + s_j b_j equal for all j: the index s alone
                b = rng.uniform(0.1, 3.0, n) * rng.choice([-1, 1], n)
                a = rng.uniform(-np.pi, np.pi) - rng.choice([-1, 1], n) * b
            elif case % 4 == 2:  # b_j = s_j beta, equal a_j (mod 2 pi): the pair s, -s
                b = rng.uniform(0.1, 3.0) * rng.choice([-1, 1], n)
                a = rng.uniform(-np.pi, np.pi) + 2 * np.pi * rng.integers(-1, 2, n)
            else:  # exact quarter turns and half turns: a pair, on the lattice
                a = rng.integers(0, 2, n) * np.pi
                b = rng.choice([-1, 1], n) * np.pi / 2
            pairs = list(zip(a, b))
            expected = set()
            for index in range(2**n):
                s = [(-1) ** ((index >> (n - 1 - j)) & 1) for j in range(n)]
                if all(
                    abs(np.exp(1j * (a[j] - a[k] + s[j] * b[j] - s[k] * b[k])) - 1.0)
                    <= max(tol, PHASE_CONDITION_FLOOR)
                    for j in range(n)
                    for k in range(n)
                ):
                    expected.add(index)
            allowed = qm.antipodal_support_reduction(qm.ghz_state(n), pairs, tol)
            assert {m.to_linear() for m in allowed} == expected


class TestNearThreshold:
    def test_weights_straddling_the_degeneracy_band_agree(self):
        # gap between the two weights from 0 to just above the 1e-8
        # threshold; marginal eigenbases near the threshold once turned
        # gaps of 1e-8 to 2e-8 into "determined" (n = 4, seed 42 at 1e-8)
        cases = [(4, 42, gap) for gap in (3e-8, 1e-7)]
        cases += [
            (n, seed, gap)
            for gap in (1e-8, 1.2e-8, 1.5e-8, 2e-8, 3e-9, 0.0)
            for n in range(3, 7)
            for seed in (40, 41, 42, 43, 44)
        ]
        for n, seed, gap in cases:
            a2 = 0.5 + gap / 2
            psi = qm.ghz_state(n, np.sqrt(a2), np.sqrt(1 - a2))
            orbit = qm.random_lu_orbit(psi, seed=seed)
            cls = qm.classify(orbit)
            assert cls.ghz_class
            assert not cls.diagnostics.ill_conditioned

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_third_amplitude_threshold(self, n):
        # 0.6|0..0> + 0.8|1..1> + eps|0..01>: the Bloch matrix over qubit 1
        # has second singular value 1.13 eps, compared with tol = 1e-8.
        # eps = 1e-8 is not pinned: 1.13e-8 sits only 13% above tol.
        for eps in (1e-6, 1e-7, 1e-9, 1e-10, 1e-12, 0.0):
            for seed in range(6):
                psi = eps_state("A", n, eps, 2400 + 10 * n + seed)
                cls = qm.classify(psi)
                if eps >= 1e-7:
                    assert cls.verdict == "determined"
                    continue
                assert cls.verdict == "ghz-class"
                partner = qm.sibling(psi, cls.certificate)
                assert qm.panels_equal(qm.panel_of_pure(psi), qm.panel_of_pure(partner), 1e-8)

    @pytest.mark.parametrize("seed", [None, 2460, 2461])
    def test_rank_one_without_a_certificate_is_ill_conditioned(self, seed):
        # 0.2|000> + 0.98|111> + 1.3e-8|100>: sigma_2 = 7.3e-9 is below tol,
        # but the perturbation leaves about 1.3e-8 off the antipodal pair
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[-1], amps[0b100] = 0.2, np.sqrt(0.96), 1.3e-8
        psi = qm.ket(amps)
        if seed is not None:
            psi = qm.random_lu_orbit(psi, seed)
        cls = qm.classify(psi)
        assert cls.verdict == "determined"
        assert cls.diagnostics.branch == "non-degenerate"
        assert cls.diagnostics.ill_conditioned

    def test_spectra_recorded_for_every_qubit(self):
        cls = qm.classify(qm.haar_random_ket(4, 3))
        assert cls.diagnostics.spectra.shape == (4, 2)
        np.testing.assert_allclose(cls.diagnostics.spectra.sum(axis=1), 1.0, atol=1e-10)


class TestRelativePhases:
    def test_sign_flip_has_quarter_turn(self):
        u = qm.SingleQubitUnitary(PAULI_Z, 1)
        ph, basis = qm.diagonal_phases(u)
        assert abs(abs(np.sin(ph.beta_j)) - 1.0) < 1e-12
        d = basis.conj().T @ u.entries @ basis
        np.testing.assert_allclose(
            d,
            np.exp(1j * ph.alpha_j)
            * np.diag([np.exp(1j * ph.beta_j), np.exp(-1j * ph.beta_j)]),
            atol=1e-12,
        )

    def test_random_unitary_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            u = qm.SingleQubitUnitary(random_unitary_2x2(rng), 1)
            ph, basis = qm.diagonal_phases(u)
            d = basis.conj().T @ u.entries @ basis
            assert abs(d[0, 1]) < 1e-9 and abs(d[1, 0]) < 1e-9
