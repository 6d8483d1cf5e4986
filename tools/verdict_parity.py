"""Print one line per item of a fixed corpus with every decision taken on it,
for diffing two trees.

A state's line holds its ``classify`` verdict, branch, ``ill_conditioned``
flag and the SHA-256 prefixes of its spectra and certificate, then
``undetermined_by_dimension``, the stabilizer dimension and a digest of
its echelon basis, and for a GHZ-class state ``chain=``, the pair that the
paper's proof chain finds on it and its ``sibling`` (see ``chain``).  A
panel's line holds the ``reconstruct`` outcome, reason, residual as
``float.hex`` and a digest of the state, then ``panel_consistency`` as
``float.hex``, then digests of ``purify_over_qubit`` of entry 1 over
qubit 1 and of entry n over qubit n (its state and degeneracy flag), ``-``
where the call raises.  Run it on two checkouts of the package on one
machine and diff the outputs: a change that keeps the deciders' outputs
bit for bit prints the same bytes.

    OPENBLAS_NUM_THREADS=1 python tools/verdict_parity.py > verdicts.txt
    python tools/verdict_parity.py --decisions < verdicts.txt

With ``--decisions`` it builds no corpus: it reads a full output on
standard input and prints the decision fields of each line, the item, n,
the ``classify`` verdict, branch and ``ill_conditioned`` flag, the
``dimension=`` verdict, the stabilizer dimension, the ``chain=`` pair and
the ``reconstruct`` outcome and reason, without the digests and hex floats.

The script imports ``qmarginal`` from the ``src`` directory and the corpus
builders from the ``perfbench`` directory of the tree it sits in.  The
corpus is the ``analyze-batch`` states and the ``reconstruct-files`` panels
(written to a temporary directory and loaded back) at seeds 7 and 11, plus
LU orbits of 0.6|0..0> + 0.8|1..1> + eps|0..01> at n = 3, 5, 6 for eps
from 1e-6 down to 1e-12, which sit on both sides of the classifier's and
the reconstruction's thresholds; the line of each of these holds the
fields of both kinds: 191 lines in all.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import qmarginal as qm  # noqa: E402
from qmarginal import io as qio  # noqa: E402
from workloads import AnalyzeBatch, ReconstructFiles  # noqa: E402

SEEDS = (7, 11)
EPS_QUBITS = (3, 5, 6)
EPSILONS = (1e-6, 1e-8, 1e-9, 1e-10, 1e-12)
# the decision values of each field that has any, as a slice of its
# comma-separated values.  A field starts at each space followed by a
# lowercase name and "=", which no reason text holds
DECISIONS = {
    "classify": slice(3),
    "dimension": slice(None),
    "stabilizer": slice(1),
    "chain": slice(None),
    "reconstruct": slice(-2),
}
_FIELD = re.compile(r" (?=[a-z]+=)")


def digest(*arrays) -> str:
    """SHA-256 prefix of the arrays' bytes, or ``-`` for no arrays."""
    if not arrays:
        return "-"
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def chain(psi: qm.Ket, cert: qm.GhzCertificate) -> str:
    """The paper's proof chain on psi and its sibling: the pair
    ``antipodal_support_reduction`` allows on the ``diagonal_phases`` of
    ``lu_equivalence_check``'s transports, as sorted linear indices, or
    ``-`` where a step returns None or raises."""
    try:
        transports = qm.lu_equivalence_check(psi, qm.sibling(psi, cert))
        if transports is None:
            return digest()
        phases = [qm.diagonal_phases(u)[0] for u in transports]
        allowed = qm.antipodal_support_reduction(psi, phases)
    except ValueError:
        return digest()
    return ",".join(str(i) for i in sorted(m.to_linear() for m in allowed))


def state_fields(psi: qm.Ket) -> list[str]:
    cls = qm.classify(psi)
    diag, cert = cls.diagnostics, cls.certificate
    cert_arrays = () if cert is None else (
        *(u.entries for u in cert.locals_),
        np.array([cert.alpha, cert.beta]),
        np.array([m.bits for m in cert.support]),
    )
    basis = qm.stabilizer_subalgebra(psi)
    rows = [np.append(e.coords.reshape(-1), e.phase) for e in basis.elements]
    fields = [
        f"classify={cls.verdict},{diag.branch},{diag.ill_conditioned},"
        f"{digest(diag.spectra)},{digest(*cert_arrays)}",
        f"dimension={qm.undetermined_by_dimension(psi)}",
        f"stabilizer={basis.dimension},{digest(*rows)}",
    ]
    return fields if cert is None else [*fields, f"chain={chain(psi, cert)}"]


def purified(panel: qm.RdmPanel, j: int) -> str:
    """Digest of ``purify_over_qubit`` of entry j over qubit j, or ``-``."""
    try:
        psi, degenerate = qm.purify_over_qubit(panel.entry(j), j)
    except ValueError:
        return digest()
    return digest(psi.amplitudes, np.array([degenerate]))


def panel_fields(panel: qm.RdmPanel) -> list[str]:
    result = qm.reconstruct(panel)
    state = digest() if result.state is None else digest(result.state.amplitudes)
    return [
        f"reconstruct={result.outcome},{result.reason},{float(result.residual).hex()},{state}",
        f"consistency={qm.panel_consistency(panel).hex()}",
        f"purify={purified(panel, 1)},{purified(panel, panel.n)}",
    ]


def eps_state(n: int, eps: float) -> qm.Ket:
    amps = np.zeros(2**n, dtype=complex)
    amps[[0, -1, 1]] = 0.6, 0.8, eps
    return qm.random_lu_orbit(qm.ket(amps, n), n)


def lines(work_dir: Path):
    for seed in SEEDS:
        for item in AnalyzeBatch().build(seed, work_dir, tiny=False):
            yield [f"analyze-{seed}/{item.kind}", str(item.n), *state_fields(item.payload["psi"])]
        for item in ReconstructFiles().build(seed, work_dir, tiny=False):
            panel = qio.load_panel(item.payload["path"])
            yield [f"reconstruct-{seed}/{item.kind}", str(item.n), *panel_fields(panel)]
    for n in EPS_QUBITS:
        for eps in EPSILONS:
            psi = eps_state(n, eps)
            yield [f"eps-{eps:g}", str(n), *state_fields(psi), *panel_fields(qm.panel_of_pure(psi))]


def decisions(line: str) -> str:
    """The decision fields of one output line (``DECISIONS``)."""
    item, n, rest = line.rstrip("\n").split(" ", 2)
    kept = [item, n]
    for field in _FIELD.split(rest):
        name, _, values = field.partition("=")
        if name in DECISIONS:
            kept.append(f"{name}={','.join(values.split(',')[DECISIONS[name]])}")
    return " ".join(kept)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--decisions", action="store_true",
        help="print the decision fields of a full output read on standard input; build no corpus",
    )
    if parser.parse_args().decisions:
        for line in sys.stdin:
            print(decisions(line))
        return
    with tempfile.TemporaryDirectory() as work_dir:
        for line in lines(Path(work_dir)):
            print(*line)


if __name__ == "__main__":
    main()
