"""Shared exception types and the process exit codes they map to."""

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_BUDGET_EXCEEDED = 3
EXIT_DISCONNECTED = 4


class MmError(Exception):
    """Base class for errors raised by this package."""

    exit_code = 1


class InvalidArgumentError(MmError, ValueError):
    """An argument violates a documented precondition."""

    exit_code = EXIT_INVALID_INPUT


class BudgetExceededError(MmError):
    """A computation would exceed its enumeration or size budget."""

    exit_code = EXIT_BUDGET_EXCEEDED


class DisconnectedGraphError(MmError):
    """A neighborhood graph failed to connect all points.

    ``components`` holds the vertex index sets of the connected components,
    each sorted, ordered by their smallest member.
    """

    exit_code = EXIT_DISCONNECTED

    def __init__(self, message, components):
        super().__init__(message)
        self.components = [sorted(c) for c in components]
        self.components.sort(key=lambda c: c[0])

    def __reduce__(self):
        # the default rebuilds from self.args, which lacks components
        return type(self), (self.args[0], self.components)


class UnsupportedReferenceError(InvalidArgumentError):
    """No closed-form reference exists for the requested comparison."""


class SolverError(MmError):
    """An external solver reported failure; carries its diagnostics."""
