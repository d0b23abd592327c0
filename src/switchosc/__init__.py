"""Simulation and analysis of a first-order oscillator with switched forcing.

Linear (Filippov) and nonlinear (hidden-dynamics) switching models, in
discontinuous and regularized (switching-layer) form: closed-form half-plane
flows, crossing maps and periodic-orbit search, sliding branches with ageing,
stiff layer integration, slow-manifold and exit-point asymptotics.
"""

from .core import (
    HybridState,
    Mode,
    NoOrbitError,
    OscillatorParams,
    Region,
    SwitchingModel,
    Trajectory,
    branch,
    branch_indices,
    classify_threshold_point,
    forcing,
    vector_field,
)
from .analytic_flow import (
    flow_solution,
    h,
    p0_map,
)
from .poincare import (
    PoincareResult,
    composite_map,
    dP_da_at_zero,
    find_nonsliding_period4,
    next_crossing,
    solve_x0,
)
from .sliding import (
    SlidingBranch,
    ageing_metrics,
    check_no_nonsliding_periodic_nonlinear,
    find_sliding_period4_linear,
    find_sliding_period4_nonlinear,
    select_branch_on_entry,
    simulate_discontinuous,
)
from .regularization import (
    ScalingFit,
    convergence_to_vr,
    critical_branch,
    exit_scaling_fit,
    find_regularized_sliding_orbit_linear,
    fold_points,
    measure_exit_point,
    regularized_poincare_linear,
    simulate_regularized,
    slow_manifold_expansion,
    v_r_reference,
)

__version__ = "1.0.0"
