"""Mean hitting times of quantum channels to goal subspaces.

Four routes to the same number: the monitored-evolution series, the analytic
mean-hitting-time map, and the Kemeny-Snell-Meyer-Hunter kernel built from
either a Hunter-family g-inverse or the group inverse of the induced
two-site chain.  On that chain the kernel is the site-0 block D_00 tiled
whatever the g-inverse G is, so routes 3 and 4 read tau from D_00, and G is
checked by its own axioms rather than by tau.  qhit holds every map in one
basis, the real Hermitian basis of ``matrep.real_form``: a chain's map is
``QMC.real``, analytic-K's H and K are real forms, and so is every matrix of
the KSMH routes.  ``matrep.vec_form`` gives a matrix's vec coordinates,
where the CLI prints it.

Only the series and the final trace depend on the initial state.
``tau_channel`` keeps the rest (K, the induced chain, D, the diagnostics,
each KSMH route's G and kernel) in one record per (S, V), a one-entry
``functools.lru_cache`` keyed by those objects, whose arrays are read-only;
the last problem's record is held.  Further routes and states on the same
objects read it, so each factorization runs once per problem, and a
rank-rule ``RuntimeWarning`` fires on the call that builds the record, not on
every route.  ``tau_channel`` raises only on invalid input; every other
refusal comes back in its ``TauReport`` as a typed ``refusal``
(``SpectralObstructionError``, ``NotIrreducibleError``,
``NoGroupInverseError`` or ``NumericalError``), next to the preconditions
found and references to the route's read-only results.  The value types
that hold arrays, and the reports, compare and hash by identity.
``tau_from_K(maps, rho)`` reads the mean hitting time of V from rho in
V-perp or the mean return time to V from rho in V; rho's support decides.
The Hunter functions default to t = e_1 and u = e_I, so
``hunter_ginverse(q)`` is ``hunter_special(q)``.
"""

from .channel import (ChannelDiagnostics, GoalSubspace, KrausChannel,
                      assumption_one_holds, diagnose, fixed_states, is_density,
                      pure_density, randomize, represent, unitary_superop)
from .errors import (DimensionError, NoGroupInverseError, NotIrreducibleError,
                     NumericalError, QhitError, SpectralObstructionError,
                     ValidationError)
from .ginverse import (GroupInverse, group_inverse, hunter_ginverse, hunter_special,
                       index)
from .hitting import HittingMaps, analytic_HK, tau_from_K
from .ksmh import (QmcHittingOperators, kernel_limit_study, ksmh_kernel,
                   qmc_hitting_operators, tau_channel, tau_irreducible_qmc)
from .matrep import SuperOp, apply, conj_kron, identity_superop, unvec, vec
from .monitor import MonitorSeries, first_visit_series, site_visit_series
from .qmc import (QMC, fixed_map, from_oqw, induce, induced_group_inverse,
                  stationary_density)

__version__ = "0.1.0"
