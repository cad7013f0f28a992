"""Fractional-calculus operators, mixed classical/Caputo variational
problems, and numerical verification of the associated conserved quantities.
"""

__version__ = "0.1.0"

from .grid import Grid, GridFunction
from .fracops import (
    rl_integral_left,
    rl_integral_right,
    caputo_left,
    caputo_right,
    rl_derivative_left,
    rl_derivative_right,
    ibp_residual,
)
from .lagrangian import LagrangianSpec
from .variational import (
    VariationalProblem,
    ExtremalSolution,
    action_value,
    frechet_differential,
    el_residual,
    solve_extremal,
)
from .symmetry import SymmetryGroup, time_translation, space_translation, rotation
from .noether import (
    InvariantSeries,
    invariance_defect,
    invariance_necessary_residual,
    transfer_series,
    noether_quantity,
    autonomous_quantity,
    drift_report,
)
from .friction import (
    FrictionProblem,
    FrictionDiagnostics,
    friction_lagrangian,
    friction_diagnostics,
    window_shrink_study,
    simulate_damped_eom,
)
from .optctrl import (
    ControlProblem,
    PontryaginState,
    hamiltonian,
    pontryagin_residuals,
    solve_control,
    control_noether_quantity,
    autonomous_control_quantity,
)

__all__ = [
    "Grid",
    "GridFunction",
    "rl_integral_left",
    "rl_integral_right",
    "caputo_left",
    "caputo_right",
    "rl_derivative_left",
    "rl_derivative_right",
    "ibp_residual",
    "LagrangianSpec",
    "VariationalProblem",
    "ExtremalSolution",
    "action_value",
    "frechet_differential",
    "el_residual",
    "solve_extremal",
    "SymmetryGroup",
    "time_translation",
    "space_translation",
    "rotation",
    "InvariantSeries",
    "invariance_defect",
    "invariance_necessary_residual",
    "transfer_series",
    "noether_quantity",
    "autonomous_quantity",
    "drift_report",
    "FrictionProblem",
    "FrictionDiagnostics",
    "friction_lagrangian",
    "friction_diagnostics",
    "window_shrink_study",
    "simulate_damped_eom",
    "ControlProblem",
    "PontryaginState",
    "hamiltonian",
    "pontryagin_residuals",
    "solve_control",
    "control_noether_quantity",
    "autonomous_control_quantity",
    "__version__",
]
