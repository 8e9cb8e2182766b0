"""Exception hierarchy shared across the simulator."""


class CellSwitchError(Exception):
    """Base class for all simulator errors."""


class ConfigError(CellSwitchError):
    """Invalid experiment or component configuration."""


class ProtocolError(CellSwitchError):
    """Malformed route header, selector, or port count."""


class SimInvariantError(CellSwitchError):
    """A simulation invariant was violated (queue overflow, fabric
    collision, conservation breach).  Always indicates a bug or a
    misconfigured experiment, never a recoverable condition."""
