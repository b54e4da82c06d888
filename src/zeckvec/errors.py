"""Exception hierarchy shared by all modules, the one range refusal, and how
a refusal names an integer or a string of them."""


class ZeckvecError(Exception):
    """Base class for all library errors; exit_code is what the CLI returns."""

    exit_code = 1


class InvalidRecurrenceError(ZeckvecError):
    """Coefficient vector violates the selected mode's constructor invariants."""


class NotSatisfyingError(ZeckvecError):
    """Operation requires a satisfying representation but got something else."""


class NotNearlySatisfyingError(ZeckvecError):
    """Operation requires a nearly satisfying representation."""


class NotEndCompleteError(ZeckvecError):
    """Operation requires an end-complete nearly satisfying representation."""


class CarryBlockedError(ZeckvecError):
    """Carry at this position would produce a negative coefficient."""


class BorrowBlockedError(ZeckvecError):
    """Borrow from a zero coefficient."""


class CapExceededError(ZeckvecError):
    """Enumeration would exceed the configured cap."""

    exit_code = 2


class BridgeDomainError(ZeckvecError):
    """Scalar bridge evaluated outside its domain (index too small)."""


class OracleExhaustedError(ZeckvecError):
    """Brute-force search frontier exceeded the node cap before finishing."""

    exit_code = 2


class NonTerminationError(ZeckvecError):
    """Normalization exhausted its step budget (possible only in relaxed mode)."""

    exit_code = 2


def _at_least(x, least: int, what: str) -> None:
    if x < least:   # every "<what> must be >= <least>" refusal has this text
        raise ValueError("%s must be >= %d" % (what, least))


def _int_or_bound(x: int) -> str:
    """x in decimal within the interpreter's digit limit; past it, "at least
    2^N", or "at most -2^N" for a negative x."""
    try:
        return str(x)
    except ValueError:
        if x < 0:
            return "at most -2^%d" % (x.bit_length() - 1)
        return "at least 2^%d" % (x.bit_length() - 1)


def _tuple_or_bounds(a: tuple) -> str:
    """repr(a) for a tuple of ints, with each element named by
    `_int_or_bound`, so a refusal can quote a string of any size."""
    return "(%s%s)" % (", ".join(map(_int_or_bound, a)), "," if len(a) == 1 else "")
