"""Exception hierarchy for circan.

Every error raised by the library derives from :class:`CirculantError`, so
callers (notably the CLI) can map failure modes to exit codes without
catching bare exceptions. The hierarchy says what kind of failure each is::

    CirculantError
      InputError (also a ValueError): an argument or input file is bad
        FixtureParseError (VertexRangeError, DuplicateEdgeError)
        EmptyJumpSetError
        MissingPairError, InvalidEdgeError, NonElementaryPathError
      DisconnectedGraphError, EmptyComplementError: the graph has no
        finite distances
      InvariantError: a result broke an invariant (a library defect)
      DegenerateTransmissionError, DegenerateReciprocalTransmissionError,
      OversizedRationalError, InconsistentPredictionError, FamilyDomainError
        (OutOfDomainError, KnownExceptionError): the remaining failures

The library knows no exit code; the CLI maps these classes to its own.
"""


class CirculantError(Exception):
    """Base class for all circan errors."""


class InvariantError(CirculantError):
    """A result broke an invariant the library relies on, such as the
    palindrome of a circulant distance vector: a defect of the library, not
    bad input."""


class InputError(CirculantError, ValueError):
    """An argument or input file the library cannot accept, such as a graph
    order below 2 or a malformed fixture. It is a ``ValueError`` too, so
    ``except ValueError`` still catches it."""


class EmptyJumpSetError(InputError):
    """All raw jump values were congruent to 0 mod n."""


class EmptyComplementError(CirculantError):
    """The complement jump set is empty (the graph was complete)."""


class DisconnectedGraphError(CirculantError):
    """An operation that requires a connected graph met a disconnected one."""


class FixtureParseError(InputError):
    """A fixture file line could not be parsed."""


class VertexRangeError(FixtureParseError):
    """A fixture referenced a vertex index outside the declared order."""


class DuplicateEdgeError(FixtureParseError):
    """A graph fixture listed the same edge twice."""


class MissingPairError(InputError):
    """A routing fixture does not cover every ordered vertex pair exactly once."""


class InvalidEdgeError(InputError):
    """A routing path used a vertex pair that is not an edge of the graph."""


class NonElementaryPathError(InputError):
    """A routing path repeats a vertex."""


class DegenerateTransmissionError(CirculantError):
    """An edge has endpoint transmissions with sum <= 2 (graph too small)."""


class DegenerateReciprocalTransmissionError(CirculantError):
    """An edge has endpoint reciprocal transmissions with sum <= 2."""


class OversizedRationalError(CirculantError):
    """An exact rational has more digits than Python converts to text."""


class InconsistentPredictionError(CirculantError):
    """A family's scalar closed forms disagree with its predicted distance
    vector (a transcription error in the closed forms)."""


class FamilyDomainError(CirculantError):
    """A closed-form prediction was requested outside its effective domain."""


class OutOfDomainError(FamilyDomainError):
    """Parameters fall outside the range where the closed forms are established."""


class KnownExceptionError(FamilyDomainError):
    """Parameters hit an explicitly excluded point (the 8-vertex double loop
    with jump 3, whose complement is disconnected)."""
