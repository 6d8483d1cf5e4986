"""Brute-force sibling search.

Independent of the classifier: if any pure state shares the panel of psi,
one of the form (L on qubit 1) psi does, so minimizing the panel mismatch
over a single 2x2 unitary settles the question.  The search reports a
witness (the unitary and the partner state) or the best non-trivial
residual it could reach.
"""

import numpy as np

import qmarginal as qm

# each state with whether it has a sibling: only the GHZ class does
cases = [
    ("balanced two-term, n=3", qm.ghz_state(3), True),
    ("rotated unbalanced two-term, n=4", qm.random_lu_orbit(qm.ghz_state(4, 0.6, 0.8), seed=41), True),
    ("W state", qm.ket([0, 1, 1, 0, 1, 0, 0, 0]), False),
    ("generic (Haar), n=4", qm.haar_random_ket(4, seed=42), False),
    ("product, n=3", qm.random_product_ket(3, seed=43), False),
]

for name, psi, expected in cases:
    report = qm.search_sibling(psi, budget=64, seed=0)
    print(name)
    print(f"  found: {report.found}   trials: {report.trials}")
    assert report.found == expected, name
    if report.found:
        unitary, partner = report.witness
        print(f"  witness overlap with source: {abs(partner.overlap(psi)):.6f}")
        dist = qm.panel_distance(qm.panel_of_pure(psi), qm.panel_of_pure(partner))
        print(f"  witness panel distance: {dist:.2e}")
        # a distinct state with the same panel
        assert abs(partner.overlap(psi)) < 1 - 1e-6 and dist < 1e-8, name
        print(f"  witness unitary on qubit 1:\n{np.round(unitary.entries, 4)}")
    else:
        print(f"  best non-trivial residual: {report.best_residual:.3e}")
    print()

# agreement with the classifier across a small sweep
agree = 0
for seed in range(10):
    psi = qm.haar_random_ket(3, 4400 + seed)
    agree += qm.search_sibling(psi).found == qm.classify(psi).ghz_class
print(f"search and classifier agree on {agree}/10 generic three-qubit states")
assert agree == 10
