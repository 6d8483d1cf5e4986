"""Every verdict and validation threshold of the package, each with its reason.

The paper's dichotomy is exact; the code decides it in floating point, each
time by comparing one computed quantity with one of the values below.  Each
value is written here once, above a comment naming the quantity it bounds
and the result it decides.  Sites with the same role share a name; sites
with different roles keep separate names even where the values agree, so
that one can move without the other.  The other modules import these names
and hold no threshold literal, and the CLI's ``--tol`` and ``--budget``
defaults are the library's.

The Levenberg-Marquardt settings of ``unitary_fit`` (the damping, its two
factors, the step cap and the gradient, step and scale floors) stay in that
module: they steer the descent, and no verdict is read off them.  So do the
start, width and size switch of ``tensors._rank_two_factor``: a poor or
missing factor only sends its reader to the eigensolve or the dense matrix,
with the same answer.  The factor is kept only when its remainder is within
HERM_TOL, the bound the loader's PSD check reads it against, which is below
the default tol of every reader of a factor (RECONSTRUCT_TOL, PANEL_TOL).
"""

# -- validation of input ------------------------------------------------------

# |norm - 1| of a Ket, a certificate's (alpha, beta) or a loaded state or entry: rejected above
NORM_REJECT_TOL = 1e-6
# |norm - 1| of a Ket above which it is divided by its norm; below it the amplitudes are kept
RENORMALIZE_TOL = 1e-12
# Hermiticity defect, |trace - 1| and -(least eigenvalue) of a DensityMatrix input: rejected above;
# also a loaded entry's remainder past its rank-2 factor above which no factor is kept
HERM_TOL = 1e-10
# max |U U^dagger - I| of a SingleQubitUnitary: rejected above
UNITARY_TOL = 1e-10
# a loaded panel entry's Hermiticity defect and -(lowest eigenvalue): the file is rejected above
LOAD_HERM_TOL = 1e-6
# |norm - 1| of a loaded state above which it is renormalized with a warning
LOAD_WARN_TOL = 1e-9
# qubit count of a state or panel file's header: rejected above; np.arange(2**n, dtype=np.int64),
# which the stabilizer and classifier index arrays are built with, wraps from n = 63 on
MAX_FILE_QUBITS = 62
# ||eta| - 1| of eta_state's phase: rejected above
ETA_UNIT_TOL = 1e-12

# -- spectra and phases -------------------------------------------------------

# gap between a qubit's two Schmidt weights below which it counts as degenerate (maximally mixed)
DEGENERACY_TOL = 1e-8
# magnitude of the first amplitude that fix_global_phase makes real and positive: the first above
PHASE_FIX_FLOOR = 1e-9
# 1 - |<a|b>| at or below which equal_up_to_phase calls a and b the same state
PHASE_EQUAL_TOL = 1e-9

# -- the classifier and its witnesses -----------------------------------------

# classify: pure-marginal eigenvalue, spectral spread, Bloch sigma_2 and certificate residue bound
CLASSIFY_TOL = 1e-8
# largest off-support amplitude of a certificate-rotated state that sibling accepts
CERTIFICATE_TOL = 1e-6
# transports between panel-equal states: panel distance and 1 - overlap accepted by default
TRANSPORT_TOL = 1e-8
# floor under a transport's tol for the panel distance of the two states, max(tol, this)
SHARED_PANEL_FLOOR = 1e-10
# floor under extract_local_unitary's tol for 1 - overlap of the transported state, max(tol, this)
TRANSPORT_OVERLAP_FLOOR = 1e-10
# antipodal_support_reduction: |sin beta_j| at or below it makes a transport scalar (rejected)
PHASE_CONDITION_TOL = 1e-8
# floor under that tol for |exp(i delta) - 1|, above which an index breaks the phase condition
PHASE_CONDITION_FLOOR = 1e-9

# -- panels and reconstruction ------------------------------------------------

# largest entrywise deviation of two panels (or panel subsets) that still counts as equal
PANEL_TOL = 1e-9
# reconstruct: third eigenvalue (rank > 2) and fit residual (incompatible); the family
# verdict is classify's, at CLASSIFY_TOL
RECONSTRUCT_TOL = 1e-9
# floor under reconstruct's tol for the cross-entry disagreement of one-qubit marginals
CONSISTENCY_FLOOR = 1e-9

# -- the stabilizer subalgebra ------------------------------------------------

# absolute floor of the nullity cutoff max(NULL_FLOOR, NULL_REL_TOL * sigma_max * rows of m)
NULL_FLOOR = 1e-9
# relative part of that cutoff: singular values of m below it span the stabilizer subalgebra
NULL_REL_TOL = 1e-12
# |pivot| below which _rref skips a column of the null-space basis
RREF_PIVOT_TOL = 1e-10
# least one-qubit eigenvalue below which undetermined_by_dimension calls psi a product: determined
PRODUCT_TOL = 1e-10
# verify_ghz_subalgebra: X/Y, phase and Z-sum residues of the conjugated basis, and its rank cutoff
ACTION_TOL = 1e-8

# -- the sibling oracle -------------------------------------------------------

# search_sibling: panel mismatch below it is a witness, overlap at or above 1 - it the scalar locus
SEARCH_TOL = 1e-6
# search_sibling: descents run before it reports no sibling
SEARCH_BUDGET = 64

# -- the CLI ------------------------------------------------------------------

# demo-chi: subset_equal tolerance telling the marginals a sign flip keeps from the one it changes
CHI_DEMO_TOL = 1e-10
