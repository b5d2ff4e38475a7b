"""qhit's numerical policy: every threshold of the package, one name each.

Each finiteness condition of a hitting time is decided against one of these
numbers: 1 outside the spectrum of Q.T (``EIG_ONE_TOL``), index(I - S) <= 1
for the group inverse (``RANK_REL_TOL``), a faithful fixed state for the
Hunter route (``FAITHFUL_TOL``).  Absolute bounds apply to quantities of
order one (traces, densities, unit vectors); relative ones are scaled by the
matrix they judge.
"""

from __future__ import annotations

# trace preservation and unitality: max entry of <vec I| S - <vec I|, S(I) - I
TP_TOL = 1e-9
# Hermiticity: imaginary part of a map's Hermitian-basis form
# (matrep.real_form) or of a state's coordinates (matrep.hermitian_coords),
# relative to the largest entry of the map or the state
HP_TOL = 1e-9
# an eigenvalue (or, on the peripheral spectrum, its modulus) counts as 1
EIG_ONE_TOL = 1e-9
# smallest eigenvalue of the fixed density above which it is faithful
FAITHFUL_TOL = 1e-9
# smallest eigenvalue of a density above -PSD_TOL in is_density
PSD_TOL = 1e-10
# state and basis checks: hermiticity and unit trace of a density (computed
# or read from a spec file), support in V or V-perp, orthonormal columns, a
# fixed density's PSD test, the residual that keeps a fixed-space basis
# vector, the Abel return defect
STATE_TOL = 1e-8
# numerical rank (ginverse._rank_cut): singular values above this times the
# largest count; also the cosine test of index <= 1
RANK_REL_TOL = 1e-10
# group and g-inverse axioms, relative to max|A|
AXIOM_REL_TOL = 1e-9
# absolute zero for order-one quantities: the trace of a fixed state, the
# pairings <e_I|t> and <u|pi>, the series' survival mass and a doubling's
# increment to tau
ZERO_TOL = 1e-12
# floor on max|A| when a relative tolerance is scaled by it
SCALE_FLOOR = 1e-30
# ||E|| of the kernel/range split above which group_inverse warns
SPLIT_COND_WARN = 1e8
# condition number of I - QT above which analytic_HK warns
RESOLVENT_COND_WARN = 1e10
# series: a hitting probability below 1 - HIT_PROB_TOL makes tau infinite
HIT_PROB_TOL = 1e-6
# relative slack when the Hunter g-inverse norms are tested for growth
NORM_GROWTH_REL_TOL = 1e-9


def near_one(eigvals) -> list:
    """The eigenvalues within ``EIG_ONE_TOL`` of 1."""
    return [lam for lam in eigvals if abs(lam - 1.0) < EIG_ONE_TOL]
