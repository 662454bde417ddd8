"""Exception types raised by the simulation kernel."""


class SimError(Exception):
    """Base class for simulation kernel errors."""
