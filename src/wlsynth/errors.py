"""Exception hierarchy shared across the package."""


class WlsynthError(Exception):
    """Base class for all package errors."""


class SchemaError(WlsynthError):
    """A file does not declare the columns the contract requires."""


class ValidationError(WlsynthError):
    """Well-formed input violates a domain invariant (negative value, duplicate id, ...)."""


class TraceParseError(WlsynthError):
    """A cell could not be parsed as the expected type."""


class ConfigError(WlsynthError):
    """Invalid configuration value or combination."""


class SolverError(WlsynthError):
    """The HiGHS binding is missing, or HiGHS rejected an option or its value.

    An exhausted `solver.node_limit` is no error: it gives an approximate plan."""


class ProfilingError(WlsynthError):
    """An executor run failed while profiling a component."""

    def __init__(self, message: str, run_index: int):
        super().__init__(message)
        self.run_index = run_index


class ProviderError(WlsynthError):
    """LLM provider transport failure; retryable by the caller."""

    def __init__(self, message: str, attempt_index: int = -1):
        super().__init__(message)
        self.attempt_index = attempt_index
