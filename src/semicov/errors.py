"""Exception hierarchy shared by all semicov modules."""


class SemicovError(Exception):
    """Base class for all errors raised by this package."""


# --- circle maps ---

class NonIntegerDegree(SemicovError):
    """Lift endpoints do not differ by an integer."""


class DegreeTooSmall(SemicovError):
    """|degree| must be at least 2."""


class NotACovering(SemicovError):
    """Operation requires a covering map (strictly monotone lift)."""


# --- semiconjugacy solvers ---

class DegreeMismatch(SemicovError):
    """Field and map carry different degrees."""


class MaxIterExceeded(SemicovError):
    """Fixed-point iteration did not reach the requested tolerance."""


# --- classification ---

class NotInvariant(SemicovError):
    """Interval is not mapped into itself by the requested iterate."""


class Overfull(SemicovError):
    """Total inserted length must stay below the circle length."""


class Clash(SemicovError):
    """Insertion orbits collide up to the truncation depth."""


# --- annulus maps ---

class FiberNotMonotone(SemicovError):
    """Fiber lift is not strictly monotone in the fiber coordinate."""


class BaseEscapes(SemicovError):
    """Base map does not send (0,1) into itself."""


class OutOfDomain(SemicovError):
    """Point lies outside the map's or field's guaranteed domain."""


class BaseNotInvertible(SemicovError):
    """Base map cannot be inverted over the required range."""


# --- band semiconjugacies ---

class BandNotInvariant(SemicovError):
    """Product band is not forward invariant on the sample grid."""


# --- connectors ---

class BranchCollision(SemicovError):
    """Preimage branches come closer than the grid can separate."""


class ImageNotGraph(SemicovError):
    """Image curve cannot be represented as a graph over the base."""


class NotMonotoneBase(SemicovError):
    """Construction requires the base coordinate to increase along orbits."""


class NotFree(SemicovError):
    """Connector meets its image; the nesting construction needs a free one."""


class NoExpansion(SemicovError):
    """Fiber slope drops to 1 or below; finite-depth convergence not guaranteed."""


# --- stability construction ---

class BadParams(SemicovError):
    """Bump parameters must satisfy 0 < rho' <= rho."""


# --- CLI / configs ---

class ParseError(SemicovError):
    """Config text could not be parsed."""


class ValidationError(SemicovError):
    """Config parsed but failed validation."""
