"""Exception hierarchy shared across the package."""


class GammaConnError(Exception):
    """Base class for all errors raised by this package."""


class VertexOutOfRange(GammaConnError):
    """A vertex id is negative or >= n."""


class SelfLoop(GammaConnError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(GammaConnError):
    """The same unordered vertex pair appears twice in an edge list."""


class DisconnectedGraph(GammaConnError):
    """The operation is defined only for connected graphs."""


class NotATree(GammaConnError):
    """The operation is defined only for trees."""


class TooSmall(GammaConnError):
    """The graph has too few vertices for the invariant to be defined."""


class TooLarge(GammaConnError):
    """The graph exceeds the size cap of an exact-enumeration routine."""


class FixedLimit(TooLarge):
    """The graph exceeds a limit built into a routine, which no cap setting lifts."""


class InfeasibleVector(GammaConnError):
    """A candidate vector violates the zero-sum or unit-sup-norm constraint."""


class NoConvergence(GammaConnError):
    """An iterative eigensolver hit its iteration cap before converging."""


class IterationCap(GammaConnError):
    """The simplex hit its step cap; each step is one pivot.

    A guard: not expected with Bland's rule.
    """


class InvalidSpec(GammaConnError):
    """A family descriptor violates its parameter constraints."""


class EmptyFactor(GammaConnError):
    """A Cartesian product factor has no vertices."""


class NonPositiveInput(GammaConnError):
    """A harmonic combination received a value <= 0."""


class EdgeListParseError(GammaConnError):
    """An edge-list document is malformed; carries the offending line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
