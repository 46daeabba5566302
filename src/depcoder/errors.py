"""Every exception class that ``cli.main`` maps to an exit code.  It catches
the three bases only: ``InputError`` (a fault in a file the user gave) exits
2, ``NumericsError`` (divergence) 3 and ``ConfigError`` 4.  Any other
exception is a bug: a traceback and exit 1.  This module imports nothing, so
the CLI can name the errors of the numpy modules without loading numpy."""


class InputError(Exception):
    """A fault in a file the user gave."""


class NumericsError(Exception):
    """Non-finite activations or gradients: the training-divergence signal."""


class ConfigError(Exception):
    """An invalid run configuration or model shape, or an output path that
    cannot be written."""


class ListingError(InputError):
    """A fault of a listing as a whole: its syntax, or no function in it."""


class ParseError(ListingError):
    """Raised on malformed listing input; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CfgError(InputError):
    """A function whose control flow graph cannot be built."""


class DependenceError(InputError):
    """A function whose dependences cannot be analysed."""


class UnsupportedInstruction(DependenceError):
    """An instruction without dependence semantics, under ``on_unknown="error"``."""


class ClosureError(InputError):
    """A dependence graph above the closure's node cap."""


class MetricsError(InputError):
    """A downstream metric asked of data it is undefined on."""
