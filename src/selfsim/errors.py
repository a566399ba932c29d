"""Exception types shared across the library."""


class SelfSimError(ValueError):
    """Base class for all library errors."""


class NDegenerate(SelfSimError):
    """Branch count n must exceed 1."""


class LengthMismatch(SelfSimError):
    """Parameter sequences a, c, d, beta have differing lengths."""


class BadLengths(SelfSimError):
    """Segment lengths a_k must be positive and sum to 1."""


class NonFinite(SelfSimError):
    """Parameters a, c, d, beta must be finite (no NaN or +-inf)."""


class BadExponent(SelfSimError):
    """Exponents must lie in [1, +inf] (or be non-integer where required)."""


class BadOption(SelfSimError):
    """A tolerance, target error, depth or cap is NaN or out of range."""


class DepthTooLarge(SelfSimError):
    """Requested refinement depth exceeds the configured segment cap."""


class BadIndex(SelfSimError):
    """A segment-code letter lies outside 1..n."""


class Unbounded(SelfSimError):
    """Some |d_k| >= 1: no bounded fixed point, anchors undefined."""


class NotContractive(SelfSimError):
    """Contraction factor r_p >= 1 at the requested exponent."""


class NotContractiveAtSomeS(NotContractive):
    """r_s >= 1 at one of the intermediate integer exponents."""

    def __init__(self, offending, message=None):
        self.offending = tuple(offending)
        super().__init__(message or f"r_s >= 1 at s in {self.offending}")


class PartitionMismatch(SelfSimError):
    """Two systems do not share the same segment lengths a."""


class NotApplicable(SelfSimError):
    """A named precondition of the operation is violated."""

    def __init__(self, violated, message=None):
        self.violated = tuple(violated)
        super().__init__(message or "preconditions violated: " + ", ".join(self.violated))


class BadPresetParams(SelfSimError):
    """Preset parameters outside their admissible range."""
