"""Print one line per sibling search of a fixed corpus, for diffing two trees.

Each line holds the state, n, budget, found, trials, ``best_residual`` as
``float.hex`` and the SHA-256 of the witness (its unitary's bytes, then its
ket's amplitudes), or ``-`` when there is none.  Run it on two checkouts of
the package on one machine and diff the outputs: a change that keeps the
sibling oracle's reports bit for bit prints the same bytes.

    OPENBLAS_NUM_THREADS=1 python tools/oracle_parity.py > parity.txt

The script imports ``qmarginal`` from the ``src`` directory and the corpus
generators from the ``perfbench`` directory of the tree it sits in.  The
corpus is the ``sibling-oracle`` benchmark workload at seeds 7, 11, 13 and
17 (48 states at n = 3-5), plus LU orbits of a Haar state, of
0.6|0..0> + 0.8|1..1> and of W at n = 3, 4, 5 and 8, two seeds each (24
states), every state searched at budgets 0, 1, 16, 17 and 64: 360 searches.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import qmarginal as qm  # noqa: E402
from workloads import SiblingOracle  # noqa: E402

WORKLOAD_SEEDS = (7, 11, 13, 17)
ORBIT_QUBITS = (3, 4, 5, 8)
ORBIT_SEEDS = (0, 1)
BUDGETS = (0, 1, 16, 17, 64)


def w_state(n: int) -> qm.Ket:
    amps = np.zeros(2**n, dtype=complex)
    amps[[2**j for j in range(n)]] = 1.0
    return qm.ket(amps, n)


def states():
    """(label, ket, search seed) for every state of the corpus."""
    for seed in WORKLOAD_SEEDS:
        for item in SiblingOracle().build(seed, None, tiny=False):
            yield f"oracle-{seed}/{item.kind}", item.payload["psi"], item.payload["seed"]
    for n in ORBIT_QUBITS:
        sources = {"haar": qm.haar_random_ket(n, 500 + n), "ghz-0.6": qm.ghz_state(n, 0.6, 0.8), "w": w_state(n)}
        for kind, source in sources.items():
            for seed in ORBIT_SEEDS:
                yield f"orbit/{kind}", qm.random_lu_orbit(source, seed), seed


def witness_digest(report) -> str:
    if report.witness is None:
        return "-"
    unitary, partner = report.witness
    digest = hashlib.sha256(np.ascontiguousarray(unitary.entries).tobytes())
    digest.update(np.ascontiguousarray(partner.amplitudes).tobytes())
    return digest.hexdigest()


def main() -> None:
    for label, psi, seed in states():
        for budget in BUDGETS:
            report = qm.search_sibling(psi, budget=budget, seed=seed)
            print(
                label, psi.n, budget, report.found, report.trials,
                float(report.best_residual).hex(), witness_digest(report),
            )


if __name__ == "__main__":
    main()
