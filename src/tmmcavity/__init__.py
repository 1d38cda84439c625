"""Transfer-matrix engine for a mobile scatterer in a 1D optical chain.

Computes static fields, radiation-pressure forces, the first-order-in-
velocity friction coefficient, momentum diffusion from quantum field
fluctuations, and the resulting equilibrium temperature, for one mobile
scatterer inside an arbitrary chain of linear optical elements; includes a
membrane-in-the-middle application layer with scans, analytic resonance
overlays, and a comparison against the coupled-cavities model.
"""

__version__ = "0.1.0"

from .elements import (
    Chain,
    Polarisability,
    PumpSpec,
    Scatterer,
    Segment,
    propagation_matrix,
    scatterer_matrix,
)
from .errors import (
    CalibrationError,
    ChainError,
    ConfigError,
    NonCoolingError,
    PassivityError,
    SingularSolveError,
    TmmCavityError,
)
from .statics import (
    CouplingReport,
    StaticFields,
    couplings,
    resonance_shifts,
    solve_static,
    static_force,
)
from .dynamics import FieldSet, ForceReport, force_with_velocity, solve_dynamic
from .noise import (
    ModeBasis,
    OperatorFields,
    TemperatureReport,
    attach_loss_modes,
    diffusion,
    equilibrium_temperature,
    operator_fields,
)
from .mim import (
    CoupledCavityParams,
    MimConfig,
    ScanGrid,
    ScanPoint,
    ScanResult,
    bare_peak,
    bare_resonance,
    build_mim,
    calibrate_coupled_params,
    compare_models,
    coupled_cavity_force,
    evaluate_chain,
    overlay_candidates,
    point_quantities,
    pump_for,
    scan,
)

__all__ = [
    "__version__",
    "Chain",
    "Polarisability",
    "PumpSpec",
    "Scatterer",
    "Segment",
    "propagation_matrix",
    "scatterer_matrix",
    "TmmCavityError",
    "PassivityError",
    "ChainError",
    "SingularSolveError",
    "NonCoolingError",
    "ConfigError",
    "CalibrationError",
    "StaticFields",
    "CouplingReport",
    "solve_static",
    "static_force",
    "resonance_shifts",
    "couplings",
    "FieldSet",
    "ForceReport",
    "solve_dynamic",
    "force_with_velocity",
    "ModeBasis",
    "OperatorFields",
    "TemperatureReport",
    "attach_loss_modes",
    "operator_fields",
    "diffusion",
    "equilibrium_temperature",
    "MimConfig",
    "ScanGrid",
    "ScanPoint",
    "ScanResult",
    "CoupledCavityParams",
    "build_mim",
    "pump_for",
    "evaluate_chain",
    "point_quantities",
    "scan",
    "bare_peak",
    "bare_resonance",
    "overlay_candidates",
    "coupled_cavity_force",
    "calibrate_coupled_params",
    "compare_models",
]
