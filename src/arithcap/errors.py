"""Exception taxonomy shared by all arithcap modules.

Each class carries the CLI exit code of its family in `exit_code`:
  2  parse errors (PolyParseError; the CLI also maps ValueError and KeyError here)
  3  precondition violations on exact inputs (the classes that set 3 below)
  4  numeric or search failures (the default)
  5  I/O errors (OSError, in the CLI)
"""


class ArithcapError(Exception):
    """Base class for all library errors."""

    exit_code = 4


# --- exact algebra -----------------------------------------------------------

class NotMonic(ArithcapError):
    exit_code = 3


class NonzeroRemainder(ArithcapError):
    exit_code = 3


class NonUnitConstantTerm(ArithcapError):
    exit_code = 3


class NonzeroConstantTerm(ArithcapError):
    exit_code = 3


class NonInvertibleLinearTerm(ArithcapError):
    exit_code = 3


class ZeroInput(ArithcapError):
    exit_code = 3


class PartsMismatch(ArithcapError):
    exit_code = 3


class DegreeTooSmall(ArithcapError):
    exit_code = 3


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
    exit_code = 3


class CertificateCheckFailed(ArithcapError):
    """An exact check that holds by construction failed: a bug, never an input error."""


# --- potential theory ---------------------------------------------------------

class CenterOnBoundary(ArithcapError):
    pass


class SolverIllConditioned(ArithcapError):
    pass


class PoleAtCenter(ArithcapError):
    exit_code = 3


class ConstantMap(ArithcapError):
    exit_code = 3


class AllCoefficientsBelowTolerance(ArithcapError):
    pass


class BoundaryZero(ArithcapError):
    pass


class CenterNotZero(ArithcapError):
    exit_code = 3


class AsymmetricDomain(ArithcapError):
    pass


class WrongVanishingOrder(ArithcapError):
    exit_code = 3


class SampleSingularity(ArithcapError):
    pass


# --- parsing -------------------------------------------------------------------

class PolyParseError(ArithcapError):
    """Syntax error in the polynomial text format; carries the 0-based offset."""

    exit_code = 2

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
