"""Numerical laboratory for coupled BPS vortex equations on a flat torus.

Computes multiple-vortex solutions of a two-field Abelian gauge system and
vortex/anti-vortex solutions of its extended form, all on a periodic
rectangle with spectral operators: existence thresholds, count-quantized
integrals, fluxes, and topological energies are solved for and verified.
"""

from .diagnostics import (
    EnergyBreakdown,
    SolveReport,
    curvatures_tw,
    curvatures_vav,
    energy_tw,
    energy_vav,
    flux_report_tw,
    flux_report_vav,
    residual_report,
    tw_quantized_integrals,
)
from .errors import (
    BracketFailure,
    BradlowViolation,
    ConfigurationError,
    DivergedIterate,
    Inadmissible,
    MaxIterExceeded,
    NonZeroMean,
    SigmaTooSmall,
    SolverError,
    Stagnation,
    VortexLabError,
)
from .sources import (
    BackgroundSet,
    VortexConfiguration,
    background,
    build_backgrounds,
    mollified_delta,
)
from .surface import (
    ScalarField,
    TorusGeometry,
    grad_energy,
    integrate,
    inv_laplacian,
    laplacian,
    mean,
)
from .tw import (
    TWProblem,
    TWSolution,
    check_bradlow,
    functional_gradient,
    functional_value,
    solve_tw,
    tw_admissibility,
    tw_problem,
)
from .vav import (
    VAVProblem,
    VAVSolution,
    apply_T,
    check_admissibility,
    constraint_shift,
    f_fun,
    f_fun_t,
    solve_vav,
    vav_admissibility,
    vav_problem,
    vav_quantized_integrals,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundSet",
    "BracketFailure",
    "BradlowViolation",
    "ConfigurationError",
    "DivergedIterate",
    "EnergyBreakdown",
    "Inadmissible",
    "MaxIterExceeded",
    "NonZeroMean",
    "ScalarField",
    "SigmaTooSmall",
    "SolveReport",
    "SolverError",
    "Stagnation",
    "TWProblem",
    "TWSolution",
    "TorusGeometry",
    "VAVProblem",
    "VAVSolution",
    "VortexConfiguration",
    "VortexLabError",
    "apply_T",
    "background",
    "build_backgrounds",
    "check_admissibility",
    "check_bradlow",
    "constraint_shift",
    "curvatures_tw",
    "curvatures_vav",
    "energy_tw",
    "energy_vav",
    "f_fun",
    "f_fun_t",
    "flux_report_tw",
    "flux_report_vav",
    "functional_gradient",
    "functional_value",
    "grad_energy",
    "integrate",
    "inv_laplacian",
    "laplacian",
    "mean",
    "mollified_delta",
    "residual_report",
    "solve_tw",
    "solve_vav",
    "tw_admissibility",
    "tw_problem",
    "tw_quantized_integrals",
    "vav_admissibility",
    "vav_problem",
    "vav_quantized_integrals",
]
