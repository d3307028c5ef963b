"""Semantic exception hierarchy.

Public functions never raise bare ``ValueError``; every contract violation
maps to one of the classes below so callers (and the CLI) can translate
failures into stable exit codes.
"""


class CopulaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CopulaError, ValueError):
    """Operands or arguments do not agree on dimension or shape."""


class NegativeMass(CopulaError, ValueError):
    """A cell mass is negative beyond tolerance."""


class MarginViolation(CopulaError, ValueError):
    """A slab mass does not match the uniform-margin requirement."""


class TotalMassViolation(CopulaError, ValueError):
    """Cell masses do not sum to one within tolerance."""


class InvertedBox(CopulaError, ValueError):
    """A box has lower corner above its upper corner."""


class BadIndexSet(CopulaError, ValueError):
    """An axis index set is empty, unsorted, duplicated or out of range."""


class BadAxis(CopulaError, ValueError):
    """An axis index is out of range."""


class BadDimension(CopulaError, ValueError):
    """A requested dimension is invalid for the operation."""


class WeightError(CopulaError, ValueError):
    """Convex-combination weights are negative or do not sum to one."""


class ResolutionOverflow(CopulaError):
    """A refinement would exceed the configured cell budget."""


class TiesDetected(CopulaError, ValueError):
    """A sample contains tied coordinate values."""


class InvalidShuffle(CopulaError, ValueError):
    """Shuffle segments are not measure preserving."""


class BadIndex(CopulaError, ValueError):
    """A family index parameter is out of range."""


class NonCopulaInput(CopulaError, ValueError):
    """An evaluator produced a negative box mass beyond tolerance."""


class ZeroMassSlab(CopulaError, ValueError):
    """Conditioning requested on a slab of zero mass."""


class DegenerateMargins(CopulaError):
    """A flat conditional margin overlaps positive joint mass, so the
    conditional copula is not unique; the ambiguity is reported instead of
    silently resolved."""


class KernelUnavailable(CopulaError):
    """An operand does not provide a Markov-kernel evaluator."""


class SupportViolation(CopulaError, ValueError):
    """The first operand has mass where the second has none."""


class ClosedFormUnavailable(CopulaError):
    """The operand lacks the structure an operation needs: a closed-form
    conditional family, bilinear conditional or partial copulas, or a grid
    for the vine ladder, tv and kl."""


class ChainViolation(CopulaError):
    """A metric inequality that must hold was violated; this signals an
    implementation bug, not bad input."""


class BadOperand(CopulaError, ValueError):
    """An operand or command argument is malformed (a usage error)."""


class UnknownCase(CopulaError, ValueError):
    """An unknown verification case id."""


class BadMode(CopulaError, ValueError):
    """An unknown mode for an experiment command."""
