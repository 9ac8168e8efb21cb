"""Exception hierarchy for the workbench.

Every error raised by the library derives from LefbenchError.  An error traced
back to a line of a scenario config starts its message with "file:line"
(config._located), so the CLI points at the offending declaration.

``exit_code`` is the CLI exit code each class ends a run with: 1 unusable
input, 2 undecidable from the oracle facts, 3 internal inconsistency.
"""

from __future__ import annotations


class LefbenchError(Exception):
    """Base class for all workbench errors."""

    exit_code = 1


class ConfigError(LefbenchError):
    """Malformed or semantically invalid scenario config."""


# ---- planar geometry -------------------------------------------------------

class NonEmbeddableInput(LefbenchError):
    """A polyline arc self-intersects."""


class DegenerateTangency(LefbenchError):
    """Overlapping collinear contact that the perturbation rule cannot resolve."""


class SharedBoundaryEndpoint(LefbenchError):
    """Two arcs end at the same boundary angle."""


class SpiralCollision(LefbenchError):
    """The annulus chosen for a wrapping spiral is not clear of punctures."""


class SpiralTooLong(LefbenchError):
    """A wrapping spiral would have more vertices than wrap builds."""


# ---- fibration model -------------------------------------------------------

class MissingClass(LefbenchError):
    """A cycle label has no homology class in the fiber data."""
    exit_code = 2


class UnresolvedSign(LefbenchError):
    """The orientation rule cannot orient a matching cycle."""
    exit_code = 2


# ---- floer oracle ----------------------------------------------------------

class UnknownPair(LefbenchError):
    """The oracle holds no rank fact for the requested pair."""
    exit_code = 2


class InvalidWitness(LefbenchError):
    """A not-isomorphic witness fails its rank requirements."""
    exit_code = 3


class MissingParity(LefbenchError):
    """Exactness was demanded but no parity certificate covers the generators."""
    exit_code = 2


# ---- rank calculus ---------------------------------------------------------

class ImageTooLarge(LefbenchError):
    """A triangle's image rank exceeds min of the adjacent ranks."""
    exit_code = 3


class Undecidable(LefbenchError):
    """Isomorphism status required but Unknown."""
    exit_code = 2


class Inconsistent(LefbenchError):
    """Rank bookkeeping contradicts itself (internal inconsistency)."""
    exit_code = 3


class IncompleteBasis(LefbenchError):
    """The obstruction test is missing a diagonal verdict."""
    exit_code = 2
