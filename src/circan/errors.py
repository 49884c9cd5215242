"""Exception hierarchy for circan.

Every error raised by the library derives from :class:`CirculantError`, so
callers (notably the CLI) can map failure modes to exit codes without
catching bare exceptions.
"""


class CirculantError(Exception):
    """Base class for all circan errors."""


class EmptyJumpSetError(CirculantError):
    """All raw jump values were congruent to 0 mod n."""


class EmptyComplementError(CirculantError):
    """The complement jump set is empty (the graph was complete)."""


class DisconnectedGraphError(CirculantError):
    """An operation that requires a connected graph met a disconnected one."""


class FixtureParseError(CirculantError):
    """A fixture file line could not be parsed."""


class VertexRangeError(FixtureParseError):
    """A fixture referenced a vertex index outside the declared order."""


class DuplicateEdgeError(FixtureParseError):
    """A graph fixture listed the same edge twice."""


class MissingPairError(CirculantError):
    """A routing fixture does not cover every ordered vertex pair exactly once."""


class InvalidEdgeError(CirculantError):
    """A routing path used a vertex pair that is not an edge of the graph."""


class NonElementaryPathError(CirculantError):
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
