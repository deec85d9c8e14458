"""Exception types shared across the package.

The CLI maps these onto process exit codes: parse problems exit with 2,
singular/degenerate algebra and capacity failures with 3, verification
failures with 1.
"""


class PoleError(ArithmeticError):
    """A denominator vanishes at the requested evaluation point.

    ``position`` is the 1-based (row, column) of the offending matrix entry,
    or None for scalar evaluation.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class StageError(ArithmeticError):
    """An algebra failure of the recursions.

    ``stage`` is the 1-based recursion stage at which the failure surfaced,
    or None outside the partitioning recursions.
    """

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class SingularMatrixError(StageError):
    """A matrix (or a leading principal block) is symbolically singular."""


class DegenerateWeightError(StageError):
    """A quadratic form or Schur-type factor the recursion must invert is
    identically zero; the weight matrices are unusable for this input."""


class CapacityError(ArithmeticError):
    """A coefficient sequence of the coefficient path outgrew the a priori
    degree capacity of its formula (checked by the kernel ``scalars.conv``
    on the untrimmed length read from its operands and on the length of
    its canonical result), or a result coefficient is too long to write as
    a decimal string.

    ``label`` names the stage quantity or the entry that failed the check.
    """

    def __init__(self, message, label):
        super().__init__(message)
        self.label = label


class MatrixParseError(ValueError):
    """Syntax or structure error in a matrix entry or matrix file.

    ``offset`` is the 0-based character offset inside the entry text;
    ``row``/``col`` locate the entry inside a matrix file (1-based) when
    the error comes from file parsing.
    """

    def __init__(self, message, offset=None, row=None, col=None):
        super().__init__(message)
        self.offset = offset
        self.row = row
        self.col = col
