"""Exception types raised by validators and enumeration budgets.

Every validation error carries a concrete witness of the failure in its
attributes, so callers (and tests) can inspect exactly which elements broke
which law.
"""


class CechError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(CechError):
    """Input the program cannot take: a JSON value where another kind is
    expected, a number that is not an integer, a flag value out of range or
    a flag missing its partner."""


# group-core

class NoIdentityAtZero(CechError):
    pass


class NotAssociative(CechError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"associativity fails at {triple}")


class MissingInverse(CechError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotHomomorphism(CechError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"map is not multiplicative at {pair}")


class NotAutomorphism(CechError):
    def __init__(self, actor_element, pair):
        self.actor_element = actor_element
        self.pair = pair
        super().__init__(
            f"permutation for actor element {actor_element} "
            f"is not an automorphism (witness pair {pair})"
        )


class NotActionHom(CechError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"action is not a homomorphism at actor pair {pair}")


# crossed-module

class EquivarianceViolation(CechError):
    def __init__(self, g, h):
        self.g = g
        self.h = h
        super().__init__(f"t(alpha(g)(h)) != g t(h) g^-1 at (g={g}, h={h})")


class PeifferViolation(CechError):
    def __init__(self, h, h2):
        self.h = h
        self.h2 = h2
        super().__init__(f"alpha(t(h))(h') != h h' h^-1 at (h={h}, h'={h2})")


class NotComposable(CechError):
    def __init__(self, tgt_first, src_second):
        self.tgt_first = tgt_first
        self.src_second = src_second
        super().__init__(
            f"target {tgt_first} of first morphism != source {src_second} of second"
        )


class NotAbelian(PeifferViolation):
    """For a one-object 2-group the Peiffer identity says exactly that the
    morphism group is abelian, so this is a special case of that violation."""

    def __init__(self, pair):
        self.pair = pair
        self.h, self.h2 = pair
        Exception.__init__(self, f"group is not abelian (witness pair {pair})")


class IsoCheckFailed(CechError):
    def __init__(self, equation, witness):
        self.equation = equation
        self.witness = witness
        super().__init__(f"isomorphism check failed: {equation} at {witness}")


# complex

class VertexOutOfRange(CechError):
    def __init__(self, simplex, vertex_count):
        self.simplex = simplex
        self.vertex_count = vertex_count
        super().__init__(f"simplex {simplex} out of range for {vertex_count} vertices")


class EmptySimplex(CechError):
    pass


class UnknownSpace(CechError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown space {name!r}")


# cohomology

class TriangleViolation(CechError):
    def __init__(self, triangle):
        self.triangle = triangle
        super().__init__(f"triangle law fails on {triangle}")


class TetrahedronViolation(CechError):
    def __init__(self, tetrahedron):
        self.tetrahedron = tetrahedron
        super().__init__(f"tetrahedron law fails on {tetrahedron}")


class NotACycle(CechError):
    pass


class MoveLeavesCocycles(CechError):
    """An elementary witness move carried a valid cocycle outside the valid
    set: the cocycle laws and the coboundary action disagree."""

    def __init__(self, move, cocycle):
        self.move = move
        self.cocycle = cocycle
        super().__init__(f"move {move} carries a valid cocycle outside the valid set")


class BudgetExceeded(CechError):
    def __init__(self, required, budget):
        self.required = required
        self.budget = budget
        super().__init__(f"workload {required} exceeds budget {budget}")


# exactness

class NotExact(CechError, ValueError):
    """A group sequence that is not short exact, or a section that is not a
    normalized section of its quotient."""


class DefectNotInKernel(CechError):
    def __init__(self, simplex, defect):
        self.simplex = simplex
        self.defect = defect
        super().__init__(f"lifting defect {defect} on {simplex} is not in the kernel")


class ValuesNotInKernel(CechError):
    def __init__(self, simplex, value):
        self.simplex = simplex
        self.value = value
        super().__init__(f"lifted value {value} on {simplex} is not in the kernel")
