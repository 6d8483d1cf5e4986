"""Shared state generators for the test corpus, and the reference text
writer.

All generators are deterministic per seed so failures reproduce exactly.
"""

import numpy as np

import qmarginal as qm


def random_ghz_orbit(n: int, seed: int, balanced: bool = False):
    """Local-unitary image of alpha|0..0> + beta|1..1>; returns (ket, |alpha|)."""
    rng = np.random.default_rng(seed)
    a2 = 0.5 if balanced else float(rng.uniform(0.05, 0.95))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    source = qm.ghz_state(n, np.sqrt(a2), np.sqrt(1.0 - a2) * np.exp(1j * phase))
    return qm.random_lu_orbit(source, seed=seed + 1), float(np.sqrt(a2))


def random_hybrid(n: int, seed: int):
    """Entangled block on k < n qubits times a random product remainder."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, n))
    block = qm.haar_random_ket(k, seed + 1)
    rest = qm.random_product_ket(n - k, seed + 2)
    amps = np.kron(block.amplitudes, rest.amplitudes)
    return qm.random_lu_orbit(qm.Ket(n, amps), seed=seed + 3)


def mixed_corpus(n: int, per_kind: int, base_seed: int):
    """Labeled states spanning GHZ orbits, Haar states, products, hybrids."""
    states = []
    for i in range(per_kind):
        orbit, _ = random_ghz_orbit(n, base_seed + 10 * i)
        states.append(("ghz-orbit", orbit))
        balanced, _ = random_ghz_orbit(n, base_seed + 10 * i + 5, balanced=True)
        states.append(("ghz-orbit-balanced", balanced))
        states.append(("haar", qm.haar_random_ket(n, base_seed + 10 * i + 1)))
        states.append(("product", qm.random_product_ket(n, base_seed + 10 * i + 2)))
        if n >= 3:  # a hybrid needs an entangled block strictly inside the register
            states.append(("hybrid", random_hybrid(n, base_seed + 10 * i + 3)))
    return states


def reference_rows(values):
    """Text rows of a 2-D complex array as one repr per float: the bytes
    the file writer must produce."""
    pairs = np.ascontiguousarray(values, dtype=complex).view(np.float64)
    return [" ".join(map(repr, row)) for row in pairs.tolist()]
