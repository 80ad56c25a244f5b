"""Exception types shared across conelab modules."""


class ConelabError(Exception):
    """Base class for all conelab errors."""


class DimensionMismatch(ConelabError):
    pass


class DimensionTooLarge(ConelabError):
    pass


class NonConvergence(ConelabError):
    pass


class EmptyInput(ConelabError):
    pass


class EmptyFamily(ConelabError):
    pass


class PreconditionFailed(ConelabError):
    pass


class CollinearInput(ConelabError):
    pass


class ImproperCone(ConelabError):
    pass


class NotCommuting(ConelabError):
    pass


class NotDiagonalizable(ConelabError):
    pass


class RefinementFailed(NotDiagonalizable):
    """No joint diagonal form: typically a defective member split by rounding."""


class NonVandergraftProduct(ConelabError):
    """A product of family members fails the spectral cone-existence test.

    Carries the exponent tuple of the offending product and, when available,
    the dominant-index data accumulated before the offending tuple.
    """

    def __init__(self, exponents, message="", partial=None):
        self.exponents = tuple(int(m) for m in exponents)
        self.partial = partial
        super().__init__(message or f"non-Vandergraft product at exponents {self.exponents}")


class PointednessCertificateFailed(ConelabError):
    pass


class NotNormal(ConelabError):
    pass


class NoSharedDominantVector(ConelabError):
    pass


class NotSemisimple(ConelabError):
    pass


class HypothesisViolated(ConelabError):
    pass


class HypothesesNotMet(ConelabError):
    """A sufficient-only decision route cannot be applied.

    Not a proof of non-existence; callers should treat it as "undecided".
    """

    def __init__(self, hypothesis, message=""):
        self.hypothesis = hypothesis
        super().__init__(message or f"hypothesis not met: {hypothesis}")


class InternalInconsistency(ConelabError):
    """A constructed witness failed its own re-verification (a bug, not an input error)."""
