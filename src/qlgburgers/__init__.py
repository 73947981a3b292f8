"""Hybrid quantum lattice gas for Burgers-like equations.

Deterministic simulator of the one-dimensional two-velocity quantum
lattice gas and its minimal two-dimensional generalization, together
with the analytic Cole-Hopf solution of the derived Burgers equation,
an explicit finite-difference reference solver for the derived
anisotropic 2D equation, and the experiment drivers for the viscosity,
shock-steepness and cross-validation studies.
"""

from .analytic import AnalyticConfig, TruncationError, cole_hopf_density
from .collision import (
    CollisionParams,
    PdeCoefficients1D,
    PopulationRangeError,
    build_collision_unitary,
    collide_closed_form,
    collide_quantum,
    equilibrium,
    jacobian_gap,
    measure_populations,
    omega,
    predicted_coefficients_1d,
    prepare_cell,
)
from .experiments import (
    DensityTrace,
    analytic_config_for,
    experimental_viscosity,
    l2_compare_2d,
    mse_compare,
    run_fdm_2d,
    run_qlg_1d,
    run_qlg_2d,
    shock_formation_step,
    shock_onset_step,
    shock_steepness,
    steepness_sweep,
    viscosity_sweep,
)
from .fdm import FdmDivergenceError, fdm_step_2d, substeps_auto
from .lattice import (
    AXIS_SYMMETRIC,
    NAMED_VELOCITY_SETS,
    ORTHOGONAL,
    TRIANGULAR,
    Grid1D,
    Grid2D,
    PdeCoefficients2D,
    PopulationField,
    VelocitySet2D,
    density,
    init_cosine_1d,
    init_cosine_2d,
    predicted_coefficients_2d,
    step_1d,
    step_2d,
    velocity_set_by_name,
)

__version__ = "0.1.0"
