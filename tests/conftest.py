"""Shared state generators for the test corpus, the reference text
writer, and a runner for code in a fresh interpreter.

All generators are deterministic per seed so failures reproduce exactly.
"""

import os
import subprocess
import sys
from pathlib import Path

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


# the state kinds the property suites draw from, by ``draw_state``
KINDS = ("haar", "product", "hybrid", "ghz-orbit", "ghz-orbit-balanced")


def w_state(n: int) -> qm.Ket:
    """The n-qubit W state, the equal sum of the basis states of weight 1."""
    amps = np.zeros(2**n)
    amps[[1 << k for k in range(n)]] = 1.0
    return qm.ket(amps)


def draw_state(kind: str, n: int, seed: int) -> qm.Ket:
    """One state of the given kind from ``KINDS``, deterministic per seed."""
    if kind == "haar":
        return qm.haar_random_ket(n, seed)
    if kind == "product":
        return qm.random_product_ket(n, seed)
    if kind == "hybrid":
        return random_hybrid(n, seed)
    return random_ghz_orbit(n, seed, balanced=kind == "ghz-orbit-balanced")[0]


# the eps values of tools/verdict_parity.py, on both sides of the
# classifier's, the reconstruction's and the dimension rule's thresholds
EPSILONS = (1e-6, 1e-8, 1e-9, 1e-10, 1e-12)


def eps_state(family: str, n: int, eps: float, seed: int) -> qm.Ket:
    """An LU orbit of a GHZ pair plus eps on one more basis vector,
    normalized: family "A" is 0.6|0..0> + 0.8|1..1> + eps|0..01>, family
    "B" is 0.2|0..0> + sqrt(0.96)|1..1> + eps|10..0>."""
    amps = np.zeros(2**n, dtype=complex)
    if family == "A":
        amps[[0, -1, 1]] = 0.6, 0.8, eps
    else:
        amps[[0, -1, 2 ** (n - 1)]] = 0.2, np.sqrt(0.96), eps
    return qm.random_lu_orbit(qm.ket(amps), seed=seed)


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


def run_fresh(code: str, *args: str, **env: str) -> str:
    """Run ``code`` with ``args`` in a fresh interpreter that imports
    qmarginal from this tree, with ``env`` added to its environment; assert
    that it exits 0 and return its standard output."""
    src = str(Path(qm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""), **env}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
