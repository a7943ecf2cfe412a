"""Exception and warning types shared across the library, and the one
table of single-number rules that every input check reads."""

from math import inf


class CavlinkError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(CavlinkError, ValueError):
    """An argument violates a documented precondition or invariant."""


class SingularResponseError(CavlinkError, ZeroDivisionError):
    """A lossless resonance is driven exactly on resonance; the response diverges."""


class BranchAssignmentError(CavlinkError):
    """Dressed-mode branches hybridize exactly 50/50 and cannot be labeled."""


class PeakAmbiguityError(CavlinkError):
    """Zero or several candidate peaks inside the analysis window."""


class WindowTooNarrowError(CavlinkError):
    """A half-maximum crossing falls outside (or on the edge of) the window."""


class DegenerateParameterError(CavlinkError):
    """Free fit parameters are indistinguishable for the given trace."""

    def __init__(self, names, message):
        super().__init__(message)
        self.names = tuple(names)


class NoSolutionError(CavlinkError):
    """The requested target cannot be reached for the given parameters."""


class TraceParseError(CavlinkError):
    """A trace file could not be parsed; carries the offending line number."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = int(line_number)


class ConfigError(CavlinkError):
    """A run configuration is missing, malformed, or inconsistent."""


class ValidityWarning(UserWarning):
    """The model is being evaluated outside its stated domain of validity."""


#: Each rule on one number, by the words its messages use, and its test. A
#: test takes a float or a numpy array (then elementwise); NaN fails them all.
_RULES = {
    "positive": lambda x: (0.0 < x) & (x < inf),
    "non-negative": lambda x: (0.0 <= x) & (x < inf),
    "finite": lambda x: (-inf < x) & (x < inf),
    "in (0, 1)": lambda x: (0.0 < x) & (x < 1.0),
    "in [0, 1]": lambda x: (0.0 <= x) & (x <= 1.0),
    "in [0, 1)": lambda x: (0.0 <= x) & (x < 1.0),
}


def _require(name, value, rule, unit=""):
    """Raise InvalidInputError unless ``value`` (every entry, for an array)
    obeys ``rule``; the message names the unit ``value`` is in, if given."""
    ok = _RULES[rule](value)  # a bool for a Python number, else numpy's
    if not (ok is True or ok is not False and ok.all()):
        bound = " and finite" if rule in ("positive", "non-negative") else ""
        unit = f" ({unit})" if unit else ""
        raise InvalidInputError(f"{name} must be {rule}{bound}{unit}, got {value!r}")
