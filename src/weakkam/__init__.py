"""Numerical weak KAM toolkit for time-periodic Lagrangians on the torus.

The solution operator of the evolutionary Hamilton-Jacobi equation is
realized as min-plus linear algebra over a variationally computed action
kernel; on top of it sit critical values, Peierls barriers, Aubry sets,
Floquet data of hyperbolic periodic orbits, and convergence-rate
experiments.
"""

from .action import MinimizationSettings, minimal_action
from .errors import (ConfigurationError, DegenerateOrbitError,
                     EmptyAubrySetError, InsufficientDataError,
                     InvalidSubsolutionError, MinimizationError, NoOrbitError,
                     NotPeriodicError, NumericalError, WeakKamError)
from .experiments import (ConvergenceReport, DwellReport, detect_aubry_orbits,
                          dwell_statistics, fit_exponential_rate,
                          run_convergence)
from .flow import (PeriodicOrbit, floquet_analysis, flow_map, flow_trajectory,
                   monodromy, refine_periodic_orbit)
from .reduction import TiltedSystem, lift_curve, lift_system, tilt_system
from .systems import (DiscretizedCurve, LagrangianSystem, PhasePoint,
                      curve_action, reduce_mod_1, torus_distance)
from .tropical import (Grid, TropicalKernel, assemble_kernel, karp_eigenvalue,
                       minplus_apply, minplus_matmul)
from .weak_kam import (AubrySet, BarrierMatrix, ConnectionGraph, aubry_set,
                       connection_graph, peierls_barrier, semigroup_limit)

__version__ = "0.1.0"
