"""Error types shared across the toolkit.

Every failure mode that callers are expected to catch has its own class;
the CLI maps them onto exit codes (invalid input -> 2, unsupported -> 3).
"""

import reprlib


def brief(x) -> str:
    """repr(x) for quoting a value from outside in a message, in at most 80
    characters: reprlib abbreviates long strings, containers and nesting."""
    try:
        text = reprlib.repr(x)
    except ValueError:  # an int past the digit limit of str()
        text = f"<{type(x).__name__} too long to show>"
    return text if len(text) <= 80 else text[:77] + "..."


class AxialError(Exception):
    """Base class for all errors raised by this package."""


class InvalidField(AxialError):
    """Scalars from different fields were mixed, or a field descriptor is bad."""


class DimensionError(AxialError):
    """Shapes or ambient dimensions do not match."""


class DegenerateParameters(AxialError):
    """Fusion-law or constructor parameters collide (eta in {0,1}, alpha = beta, ...)."""


class NotAnIdeal(AxialError):
    """A subspace passed as an ideal is not closed under multiplication by the algebra."""


class NotPrimitive(AxialError):
    """An operation required a primitive axis (1-eigenspace of dimension one)."""


class NotSemisimple(AxialError):
    """An operation required the adjoint eigenspaces to span the whole algebra."""


class NotAnAxis(AxialError):
    """A vector failed axis verification where a verified axis was required."""


class InvalidGrading(AxialError):
    """A sign map does not satisfy the grading closure condition for the law."""


class Unsupported(AxialError):
    """The computation is declined (wrong characteristic, no Frobenius form, ...)."""


class ClosureCapExceeded(AxialError):
    """Axis-set closure grew past the configured cap."""


class GroupCapExceeded(AxialError):
    """The group order is larger than the configured cap."""


class UnknownCatalogEntry(AxialError):
    """No catalog constructor matches the requested name."""


class InvalidGroup(AxialError):
    """The provided involution class fails the 3-transposition conditions."""


class NotAFlip(AxialError):
    """The provided permutation is not an involutory diagram automorphism."""


class NotOrthogonal(AxialError):
    """A double axis was requested from two axes with nonzero product."""


class NotAnAxisCandidate(AxialError):
    """A closed-form idempotent family was evaluated outside its norm condition."""


class ConsistencyFailure(AxialError):
    """Two derivations of the same structure constant disagree; construction aborted."""


class NotTwoGenerated(AxialError):
    """An axet does not arise from the two given generator axes."""


class MalformedInput(AxialError):
    """A JSON document or CLI argument does not match the expected shape."""
