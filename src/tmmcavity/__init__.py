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
from .statics import StaticFields, solve_static, static_force
from .dynamics import FieldSet, ForceReport, force_with_velocity, solve_dynamic
from .noise import (
    ModeBasis,
    OperatorFields,
    TemperatureReport,
    attach_loss_modes,
    diffusion,
    equilibrium_temperature,
    evaluate_chain,
    operator_fields,
)
from .mim import (
    CoupledCavityParams,
    CouplingReport,
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
    couplings,
    overlay_candidates,
    point_quantities,
    pump_for,
    resonance_shifts,
    scan,
)

# every name imported above from a submodule, and the version
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if getattr(value, "__module__", "").startswith(__name__ + ".")
]
