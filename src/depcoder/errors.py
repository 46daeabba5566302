"""Exception classes that ``cli.main`` maps to exit codes.

This module imports nothing, so the CLI can name the errors of the numpy
modules without loading numpy.
"""


class ClosureError(Exception):
    """A dependence graph above the closure's node cap."""


class MetricsError(Exception):
    """A downstream metric asked of data it is undefined on."""


class NumericsError(Exception):
    """Non-finite activations or gradients: the training-divergence signal."""
