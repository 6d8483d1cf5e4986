"""Partial panels determine less.

The full panel of n marginals pins down every state outside the GHZ class.
Drop even one marginal and a strictly larger set of states escapes.  The
four-qubit example

    (1/sqrt(3)) (|0000> + |0001> + |1111>)

is not GHZ-class (its full panel determines it), yet flipping the sign of
its last amplitude with a Z on qubit 1, 2, or 3 changes none of the
marginals omitting qubits 1, 2, 3 -- only the marginal omitting qubit 4
notices the difference.
"""

import qmarginal as qm
from qmarginal.tensors import PAULI_Z

chi = qm.chi_state()
print("state: (1/sqrt(3)) (|0000> + |0001> + |1111>)")
cls = qm.classify(chi)
print(f"classification: {cls.verdict}")
assert cls.verdict == "determined"
dimension = qm.stabilizer_subalgebra(chi).dimension
print(f"stabilizer dimension: {dimension} (n-1 would be 3)")
assert dimension == 2

partners = {j: qm.apply_local(qm.SingleQubitUnitary(PAULI_Z, j), chi) for j in (1, 2, 3)}
same = all(
    qm.equal_up_to_phase(partners[1], partners[j], 1e-12) for j in (2, 3)
)
print(f"Z on qubit 1, 2, or 3 all give one and the same partner state: {same}")
assert same
partner = partners[1]
print(f"partner overlap with the source: {abs(partner.overlap(chi)):.4f}")

print()
print("which marginals can tell the two states apart?")
for j in (1, 2, 3, 4):
    agree = qm.subset_equal(chi, partner, {j}, 1e-10)
    print(f"  marginal omitting qubit {j}: {'identical' if agree else 'different'}")
    # only the marginal omitting qubit 4 tells them apart
    assert agree == (j != 4)

print()
print("so the panel subset {1, 2, 3} cannot distinguish them:")
sub = qm.PanelSubset(qm.panel_of_pure(chi), frozenset({1, 2, 3}))
matches = sub.matches(qm.panel_of_pure(partner), 1e-10)
print(f"  subset matches the partner's panel: {matches}")
assert matches

print()
print("the full panel still reconstructs the source uniquely:")
result = qm.reconstruct(qm.panel_of_pure(chi))
print(f"  outcome  : {result.outcome}")
fidelity = abs(result.state.overlap(chi))
print(f"  fidelity : {fidelity:.12f}")
assert result.outcome == "unique" and abs(fidelity - 1.0) < 1e-9
