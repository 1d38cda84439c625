"""Exception types shared across the package."""


class TmmCavityError(Exception):
    """Base class for all package errors."""


class PassivityError(TmmCavityError, ValueError):
    """Polarisability that is not a finite number, or has Im(zeta) < 0
    (gain medium, unsupported)."""


class ChainError(TmmCavityError, ValueError):
    """Structurally invalid chain (mobile element, lengths, emptiness)."""


class SingularSolveError(TmmCavityError, RuntimeError):
    """No transmission channel between pump and scatterer (beta_0 = 0), or
    a composition or solve that overflows the float64 range."""


class NonCoolingError(TmmCavityError, ValueError):
    """Equilibrium temperature requested where friction is not negative."""


class ConfigError(TmmCavityError, ValueError):
    """Malformed configuration file or unknown keys."""


class CalibrationError(TmmCavityError, ValueError):
    """Bare-cavity resonance has no measurable linewidth (transparent mirrors,
    or an intensity contrast that never falls to half its peak)."""
