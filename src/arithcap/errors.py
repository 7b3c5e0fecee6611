"""Exception taxonomy shared by all arithcap modules.

Exit-code families used by the CLI:
  2  parse / usage errors
  3  precondition violations on exact inputs
  4  numeric or search failures
  5  I/O errors
"""


class ArithcapError(Exception):
    """Base class for all library errors."""


# --- exact algebra -----------------------------------------------------------

class NotMonic(ArithcapError):
    pass


class NonzeroRemainder(ArithcapError):
    pass


class NonUnitConstantTerm(ArithcapError):
    pass


class NonzeroConstantTerm(ArithcapError):
    pass


class NonInvertibleLinearTerm(ArithcapError):
    pass


class ZeroInput(ArithcapError):
    pass


class PartsMismatch(ArithcapError):
    pass


class DegreeTooSmall(ArithcapError):
    pass


# --- integerization / patching ----------------------------------------------

class NotFound(ArithcapError):
    """A bounded search ran out of candidates."""


class NoMargin(ArithcapError):
    """Certified lower bound could not be pushed above zero."""


class InsufficientMargin(ArithcapError):
    """Certified lower bound is positive but not > 1."""


class DegreeCapExceeded(ArithcapError):
    pass


class TopCoefficientsNotIntegral(ArithcapError):
    pass


class CertificateCheckFailed(ArithcapError):
    """An exact check that holds by construction failed: a bug, never an input error."""


# --- potential theory ---------------------------------------------------------

class CenterOnBoundary(ArithcapError):
    pass


class SolverIllConditioned(ArithcapError):
    pass


class PoleAtCenter(ArithcapError):
    pass


class ConstantMap(ArithcapError):
    pass


class AllCoefficientsBelowTolerance(ArithcapError):
    pass


class BoundaryZero(ArithcapError):
    pass


class CenterNotZero(ArithcapError):
    pass


class AsymmetricDomain(ArithcapError):
    pass


class WrongVanishingOrder(ArithcapError):
    pass


class SampleSingularity(ArithcapError):
    pass


# --- parsing -------------------------------------------------------------------

class PolyParseError(ArithcapError):
    """Syntax error in the polynomial text format; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
