"""Seeded generators for the states and panels the workloads feed the program.

Every input is a pure function of the workload seed and the slot it fills,
so the same seed always gives the same corpus.  The generators only build
kets, density matrices and panels through the public ``qmarginal`` API;
what the program is asked to do with them is up to the workloads.
"""

from __future__ import annotations

import math

import numpy as np

import qmarginal as qm

GHZ_KINDS = ("ghz-orbit", "ghz-balanced")


def ghz_orbit(n: int, seed: int, balanced: bool) -> qm.Ket:
    """Local-unitary image of alpha|0..0> + beta|1..1>.

    Unbalanced orbits keep |alpha|^2 in [0.1, 0.4] so their one-qubit
    spectra stay far from the degeneracy threshold.
    """
    rng = np.random.default_rng(seed)
    a2 = 0.5 if balanced else float(rng.uniform(0.1, 0.4))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    source = qm.ghz_state(n, math.sqrt(a2), math.sqrt(1.0 - a2) * np.exp(1j * phase))
    return qm.random_lu_orbit(source, seed=seed + 1)


def hybrid(n: int, seed: int) -> qm.Ket:
    """Haar block on k < n qubits times a random product remainder."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, n))
    block = qm.haar_random_ket(k, seed + 1)
    rest = qm.random_product_ket(n - k, seed + 2)
    return qm.random_lu_orbit(qm.Ket(n, np.kron(block.amplitudes, rest.amplitudes)), seed + 3)


def bell_bell(seed: int) -> qm.Ket:
    """LU-rotated Bell x Bell: every marginal degenerate, yet determined."""
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return qm.random_lu_orbit(qm.Ket(4, np.kron(bell, bell)), seed)


def state(kind: str, n: int, seed: int) -> qm.Ket:
    if kind in GHZ_KINDS:
        return ghz_orbit(n, seed, balanced=kind == "ghz-balanced")
    if kind == "haar":
        return qm.haar_random_ket(n, seed)
    if kind == "product":
        return qm.random_product_ket(n, seed)
    if kind == "hybrid":
        return hybrid(n, seed)
    if kind == "bell-bell":
        return bell_bell(seed)
    raise ValueError(f"unknown state kind {kind!r}")


def mixed_panel(n: int, seed: int) -> qm.RdmPanel:
    """Panel of a full-rank random mixed state: no pure state has it."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    return qm.panel_of_mixed(qm.DensityMatrix(tuple(range(1, n + 1)), rho))


def perturbed_panel(n: int, seed: int) -> qm.RdmPanel:
    """Pure panel with entry 2 rotated on qubit 1 by 0.01 rad.

    The entry stays a valid rank-2 density matrix, so only the cross-entry
    consistency of one-qubit marginals can tell it apart.
    """
    panel = qm.panel_of_pure(qm.haar_random_ket(n, seed))
    theta = 0.01
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    u = np.kron(rot, np.eye(2 ** (n - 2)))
    entries = list(panel.entries)
    e = entries[1]
    entries[1] = qm.DensityMatrix(e.qubit_labels, u @ e.entries @ u.conj().T)
    return qm.RdmPanel(n, tuple(entries))


def slot_seeds(seed: int, count: int) -> list[int]:
    """One independent generator seed per corpus slot."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1000, size=count)]
