"""Exception types raised by the public API."""


class FnlsError(Exception):
    """Base class for all package-specific errors."""


class SingularSymbolError(FnlsError):
    """A symbol is not finite somewhere on the wavenumber lattice."""


class DyadicScaleError(FnlsError):
    """Littlewood-Paley scale outside the grid-resolvable range."""


class OffLatticeError(FnlsError):
    """Requested modulation velocity is not commensurate with the lattice."""


class RescaleAliasingError(FnlsError):
    """Spatial rescaling would push spectral content past the target Nyquist."""


class MassDriftError(FnlsError):
    """Relative mass drift exceeded the guard (signals a solver bug)."""


class NonFiniteFieldError(FnlsError):
    """NaN or Inf detected in a field."""


class CoercivityError(FnlsError):
    """Soliton symbol is not positive on the lattice."""


class StagnationError(FnlsError):
    """Fixed-point iteration cannot make progress."""


class WrapAroundError(FnlsError):
    """Dispersive packet would wrap around the periodic box."""


class RegimeError(FnlsError):
    """Parameters outside the range an experiment requires."""
