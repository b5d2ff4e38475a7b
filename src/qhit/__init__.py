"""Mean hitting times of quantum channels to goal subspaces.

Four routes to the same number: the monitored-evolution series, the analytic
mean-hitting-time map, and the Kemeny-Snell-Meyer-Hunter kernel built from
either a Hunter-family g-inverse or the group inverse of the induced
two-site chain.
"""

from .channel import (ChannelDiagnostics, GoalSubspace, KrausChannel,
                      assumption_one_holds, diagnose, fixed_states, is_density,
                      pure_density, randomize, represent, unitary_superop)
from .errors import (DimensionError, NoGroupInverseError, NotIrreducibleError,
                     NumericalError, QhitError, SpectralObstructionError,
                     ValidationError)
from .ginverse import (GroupInverse, drazin_limit, group_inverse,
                       hunter_ginverse, hunter_special, index)
from .hitting import HittingMaps, analytic_HK, fundamental_map, mhtf_tau, tau_from_K
from .ksmh import (QmcHittingOperators, first_step_operator_L,
                   kernel_limit_study, ksmh_kernel, qmc_hitting_operators,
                   tau_channel, tau_irreducible_qmc)
from .matrep import SuperOp, apply, conj_kron, identity_superop, unvec, vec
from .monitor import MonitorSeries, first_visit_series, site_visit_series
from .qmc import (QMC, VecState, fixed_map, fixed_space_dim, from_oqw, induce,
                  induced_group_inverse, stationary_density)

__version__ = "0.1.0"
