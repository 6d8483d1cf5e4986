"""Classifying states: GHZ class or determined.

A pure state shares its panel with another pure state exactly when it is
local-unitary equivalent to alpha|00...0> + beta|11...1> with alpha*beta
nonzero.  ``classify`` decides this and, for GHZ-class states, returns a
certificate: per-qubit rotations to the two-term antipodal form plus the
amplitudes.  From the certificate one can write down the sibling state
(beta -> -beta) that shares every marginal.
"""

import numpy as np

import qmarginal as qm

# each state with the verdict the paper's theorem gives it
gallery = [
    ("balanced two-term, n=3", qm.ghz_state(3), "ghz-class"),
    ("unbalanced two-term orbit, n=4", qm.random_lu_orbit(qm.ghz_state(4, 0.6, 0.8), seed=3), "ghz-class"),
    ("W state", qm.ket([0, 1, 1, 0, 1, 0, 0, 0]), "determined"),
    ("|0> x Bell", qm.ket(np.kron([1, 0], [1, 0, 0, 1]), 3), "determined"),
    ("cluster-type, n=4", qm.ket([1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1], 4), "determined"),
    ("generic (Haar), n=4", qm.haar_random_ket(4, seed=5), "determined"),
]

for name, psi, expected in gallery:
    cls = qm.classify(psi)
    assert cls.verdict == expected, (name, cls.verdict)
    spectra = ", ".join(f"({p:.3f},{q:.3f})" for p, q in cls.diagnostics.spectra)
    print(f"{name}")
    print(f"  verdict : {cls.verdict}   (branch: {cls.diagnostics.branch})")
    print(f"  spectra : {spectra}")
    if cls.ghz_class:
        cert = cls.certificate
        print(f"  |alpha|, |beta| : {abs(cert.alpha):.6f}, {abs(cert.beta):.6f}")
        partner = qm.sibling(psi, cert)
        dist = qm.panel_distance(qm.panel_of_pure(psi), qm.panel_of_pure(partner))
        print(f"  sibling overlap : {abs(partner.overlap(psi)):.6f}")
        print(f"  sibling panel distance : {dist:.2e}")
        # a distinct state with the same panel
        assert abs(partner.overlap(psi)) < 0.5 and dist < 1e-12, name
    print()

# the whole family at once: sweep the relative phase of the certificate
orbit = qm.random_lu_orbit(qm.ghz_state(3, 0.6, 0.8), seed=8)
cert = qm.classify(orbit).certificate
panel = qm.panel_of_pure(orbit)
print("sweeping the relative phase of one certificate:")
for phi in np.linspace(0.0, np.pi, 5):
    member = qm.phase_family(cert, phi)
    dist = qm.panel_distance(qm.panel_of_pure(member), panel)
    print(f"  phi={phi:.2f}  overlap with source {abs(member.overlap(orbit)):.4f}  panel distance {dist:.1e}")
    assert dist < 1e-12, phi
# phi = 0 is the source itself, phi = pi its sibling
assert abs(qm.phase_family(cert, 0.0).overlap(orbit)) > 1 - 1e-12
assert abs(qm.phase_family(cert, np.pi).overlap(orbit)) < 0.5
