"""Every numerical tolerance of the package, in one place.

Amplitudes and masses are exact up to rounding, so 1e-12 tests equality;
1e-9 bounds the drift a run or a check allows before it faults or a claim
fails.
"""

PRUNE_TOL = 1e-15  # amplitudes smaller than this are dropped from a state
AMPLITUDE_TOL = 1e-12  # an amplitude this close to 0 (or to 1) counts as 0 (or 1)
CONSERVATION_TOL = 1e-12  # mass a measurement may lose to rounding
TIE_TOL = 1e-12  # two values this close are a tie in sweeps and derandomization
ROUND_TOL = 1e-9  # mass a round may gain or lose to rounding
BOUND_TOL = 1e-9  # slack when a probability is compared with a claimed bound
ORTHO_TOL = 1e-9  # unit norm and orthogonality of quantum columns
CLASSICAL_ROW_TOL = 1e-9  # nonnegative real weights summing to 1 on classical rows
RANK_TOL = 1e-7  # smallest residual norm Gram-Schmidt accepts as a new direction
