"""Exception hierarchy shared across the package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class AssemblerError(ReproError):
    """Raised when assembly text cannot be parsed or resolved."""


class EmulationError(ReproError):
    """Raised when functional execution encounters an illegal state."""


class CFGError(ReproError):
    """Raised for malformed control-flow graphs or invalid queries."""


class SimulationError(ReproError):
    """Raised by the cycle-level timing simulator."""


class SelectionError(ReproError):
    """Raised by diverge-branch selection when inputs are invalid."""


class WorkloadError(ReproError):
    """Raised by the synthetic workload generator."""
