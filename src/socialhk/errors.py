"""Exception types shared across the package."""


class SocialHKError(Exception):
    """Base class for all domain errors raised by this package."""


class GraphTooLarge(SocialHKError):
    """Exhaustive routine refused: vertex count exceeds the exact-enumeration cap."""

    def __init__(self, n, cap):
        super().__init__(f"graph on {n} vertices exceeds the exact-enumeration cap {cap}")
        self.n = n
        self.cap = cap


class DisconnectedGraph(SocialHKError):
    """Operation requires a connected graph."""


class EmptyVertexSet(SocialHKError):
    """Operation requires a nonempty vertex set."""


class DimensionMismatch(SocialHKError):
    """Opinion vector length does not match the graph's vertex count."""


class PreconditionViolated(SocialHKError):
    """Input violates an operation's stated hypothesis."""


class SpreadTooLarge(SocialHKError):
    """Opinion spread must stay strictly below the confidence bound."""


class NotLocked(SocialHKError):
    """Trajectory never reached the frozen-influence-graph certificate."""


class HistoryTruncated(SocialHKError):
    """The answer needs recorded states that ``history_cap`` dropped."""


class EpsTooSmall(SocialHKError):
    """Convergence radius must be strictly positive."""


class BudgetExhausted(SocialHKError):
    """Simulation hit its step budget before the requested stop condition.

    Carries the partial trajectory so callers can inspect what was computed.
    """

    def __init__(self, max_steps, trajectory):
        super().__init__(f"stop condition not reached within {max_steps} steps")
        self.max_steps = max_steps
        self.trajectory = trajectory


class DeltaOutOfRange(SocialHKError):
    """Gap parameter outside the admissible open interval."""


class DeltaTooLarge(SocialHKError):
    """Gap parameter must stay strictly below the witness offset."""


class SpilloverVertices(SocialHKError):
    """Vertices outside the split would immediately couple to the contracting side."""

    def __init__(self, vertices):
        super().__init__(f"vertices {sorted(vertices)} are adjacent to the contracting side")
        self.vertices = tuple(sorted(vertices))


class DisconnectedPart(SocialHKError):
    """The induced subgraph on the contracting side must be connected."""


class ZeroOnWindow(SocialHKError):
    """Vector vanishes identically on the inspected coordinate window."""


class NoBoundary(SocialHKError):
    """The split has no boundary edges between its two sides."""


class CompleteGraph(SocialHKError):
    """Operation requires an incomplete graph."""


class WidthTooLarge(SocialHKError):
    """Sampler width must stay strictly below the confidence bound."""


class InvalidSeed(SocialHKError):
    """Seed 0 is reserved as invalid; use any other integer."""


class GraphFormatError(SocialHKError):
    """Graph JSON payload violates the documented format."""
