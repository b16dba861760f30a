"""Domain errors raised on violated preconditions, one class per
precondition.

Every class here derives from DomainError, so the CLI maps it to exit
code 2 with a structured payload.  A broken invariant is a plain
RuntimeError, and anything else escaping a command is an internal bug
too (exit 1).
"""


class DomainError(ValueError):
    """A caller violated a documented precondition."""


class NonUnitGenerator(DomainError):
    pass


class NotADivisor(DomainError):
    pass


class NotPrimitive(DomainError):
    pass


class NotIrregular(DomainError):
    pass


class NotExactDivisor(DomainError):
    pass


class LevelMismatch(DomainError):
    pass


class GenusTooSmall(DomainError):
    pass


class NotPrime(DomainError):
    pass


class RCongruentZero(DomainError):
    pass


class TruncationTooLarge(DomainError):
    """A series expansion whose length or work exceeds the cost bound."""


class DivisorTooLarge(DomainError):
    """A cusp divisor with more (cusp, block) pairs than the cost bound."""


class AtlasTooLarge(DomainError):
    """An X_1(N) atlas with more cusps than the cost bound."""


class UnitGroupTooLarge(DomainError):
    """A unit group (Z/NZ)*, or a subgroup of it, with more elements than
    the cost bound."""


class LevelTooLarge(DomainError):
    """A number past the bound on what trial division may factor."""


class SurveyTooLarge(DomainError):
    """A survey bound past the cost bound on the levels surveyed."""


class InconsistentGapCount(DomainError):
    pass


class GenusTooLarge(DomainError):
    """A gap sequence asked for at a genus past the cost bound."""


class BadFlag(DomainError):
    """An argv the parser refuses, the empty argv included."""


class NotPositive(DomainError):
    """A level, worker count or number of terms below 1, refused by
    `arith.check_positive` alone."""


class BadSpec(DomainError):
    """An eta-quotient spec that is malformed: a spec file that is missing
    or not JSON, or an exponent map whose level, keys or values are not
    ints."""


class NotAFunction(DomainError):
    """An eta quotient whose divisor has a non-integral order or nonzero
    degree, so it is not a function on X_1(N)."""
