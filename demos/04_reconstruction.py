"""Inverting the panel map.

Given only the n marginals of an unknown pure state, ``reconstruct``
recovers it.  Three outcomes are possible: a unique state (the generic
case), a one-parameter GHZ family (when the panel belongs to one), or a
proof of incompatibility (no pure state has that panel).
"""

import numpy as np

import qmarginal as qm

# generic case: the panel pins the state down completely
psi = qm.haar_random_ket(5, seed=21)
result = qm.reconstruct(qm.panel_of_pure(psi))
print("generic five-qubit state from its panel:")
print(f"  outcome  : {result.outcome}")
print(f"  residual : {result.residual:.2e}")
print(f"  fidelity : {abs(result.state.overlap(psi)):.12f}")

# GHZ-class panel: rotations of qubit 1 about one axis all fit, so a family
# comes back
orbit = qm.random_lu_orbit(qm.ghz_state(4, 0.6, 0.8), seed=22)
result = qm.reconstruct(qm.panel_of_pure(orbit))
print()
print("rotated two-term state from its panel:")
print(f"  outcome : {result.outcome}")
print(f"  |alpha| : {abs(result.certificate.alpha):.6f}")
best = max(
    abs(qm.phase_family(result.certificate, phi).overlap(orbit))
    for phi in np.linspace(0, 2 * np.pi, 721)
)
print(f"  best family-member fidelity against the source: {best:.9f}")

# fully degenerate panels (all marginals maximally mixed) take the same
# closed-form path: a cluster-type state is still pinned down uniquely
cluster = qm.ket([1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1], 4)
result = qm.reconstruct(qm.panel_of_pure(cluster))
print()
print("cluster-type state (every marginal maximally mixed):")
print(f"  outcome  : {result.outcome}")
print(f"  fidelity : {abs(result.state.overlap(cluster)):.12f}")

# tampered panels are detected
panel = qm.panel_of_pure(qm.haar_random_ket(3, seed=23))
mats = [e.entries.copy() for e in panel.entries]
mats[1][0, 3] += 1e-3
m = 0.5 * (mats[1] + mats[1].conj().T)
evals, evecs = np.linalg.eigh(m)
m = (evecs * np.clip(evals, 0, None)) @ evecs.conj().T
m /= np.trace(m).real
entries = list(panel.entries)
entries[1] = qm.DensityMatrix(entries[1].qubit_labels, m)
result = qm.reconstruct(qm.RdmPanel(3, tuple(entries)))
print()
print("panel with one tampered entry:")
print(f"  outcome : {result.outcome}")
print(f"  reason  : {result.reason}")
