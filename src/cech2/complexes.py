"""Finite simplicial complexes modeling spaces with good covers.

Vertices play the role of cover indices: a k-simplex marks a nonempty
(k+1)-fold intersection of the vertex-star cover, so the complex itself is
the combinatorial model of the cover.  Cohomology only ever reads simplices
of dimension <= 3, but the full face closure is stored so subdivision is
faithful.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .errors import BudgetExceeded, EmptySimplex, UnknownSpace, VertexOutOfRange

# the most faces a complex may hold, counted before its closure is built:
# every stock space and subdivision holds fewer than a thousand
MAX_FACES = 10**6


class SimplicialComplex:
    """Downward-closed set of strictly increasing vertex tuples."""

    def __init__(self, vertex_count: int, simplices: Iterable[tuple[int, ...]], name: str = ""):
        self.vertex_count = vertex_count
        self.simplices = frozenset(simplices)
        self.name = name

    def simplices_of_dim(self, k: int) -> list[tuple[int, ...]]:
        return sorted(s for s in self.simplices if len(s) == k + 1)

    @property
    def vertices(self) -> range:
        return range(self.vertex_count)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return self.simplices_of_dim(1)

    @property
    def triangles(self) -> list[tuple[int, int, int]]:
        return self.simplices_of_dim(2)

    def euler_characteristic(self) -> int:
        chi = 0
        for s in self.simplices:
            chi += 1 if len(s) % 2 == 1 else -1
        return chi

    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def __repr__(self):
        counts = []
        for k in range(self.dimension() + 1):
            counts.append(str(len(self.simplices_of_dim(k))))
        label = self.name or "complex"
        return f"SimplicialComplex({label}: {'/'.join(counts) or '0'})"


def _closure(simplices: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    closed: set[tuple[int, ...]] = set()
    for s in simplices:
        for size in range(1, len(s) + 1):
            for face in itertools.combinations(s, size):
                closed.add(face)
    return closed


def build_complex(
    vertex_count: int,
    maximal_simplices: Sequence[Sequence[int]],
    name: str = "",
) -> SimplicialComplex:
    """Close the given simplices under faces.

    Input tuples are normalized to strictly increasing order; all vertices
    0..vertex_count-1 are included even when isolated.  Raises
    BudgetExceeded, before the closure is built, when the vertices and the
    2^|s| - 1 faces of each maximal simplex s number more than MAX_FACES.
    """
    normalized = []
    for s in maximal_simplices:
        if len(s) == 0:
            raise EmptySimplex("simplices must be nonempty")
        t = tuple(sorted(set(int(v) for v in s)))
        if len(t) != len(s):
            raise EmptySimplex(f"repeated vertex in simplex {tuple(s)}")
        if t[0] < 0 or t[-1] >= vertex_count:
            raise VertexOutOfRange(t, vertex_count)
        normalized.append(t)
    faces = vertex_count + sum(2 ** len(t) - 1 for t in normalized)
    if faces > MAX_FACES:
        raise BudgetExceeded(faces, MAX_FACES)
    simplices = _closure(normalized)
    simplices.update((v,) for v in range(vertex_count))
    return SimplicialComplex(vertex_count, simplices, name=name)


def barycentric_subdivide(c: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the face poset: vertices are the simplices of c,
    numbered by (least vertex, dimension, simplex).  Each barycentre then
    follows the vertex it starts at, which follows the barycentre of an edge
    to a smaller neighbour if it has one, so the vertices of sd(c) with no
    smaller neighbour are those of c with none.  Its maximal simplices are
    the full flags, each descending from a maximal simplex of c through
    faces of one dimension less, and only those are passed to
    ``build_complex``, each in increasing order."""
    verts = sorted(c.simplices, key=lambda s: (s[0], len(s), s))
    index = {s: i for i, s in enumerate(verts)}
    facets = {s[:i] + s[i + 1 :] for s in c.simplices if len(s) > 1 for i in range(len(s))}
    flags = []

    def descend(s, flag):
        flag = (index[s], *flag)
        if len(s) == 1:
            flags.append(tuple(sorted(flag)))
        else:
            for i in range(len(s)):
                descend(s[:i] + s[i + 1 :], flag)

    for s in c.simplices - facets:
        descend(s, ())
    return build_complex(len(verts), flags, name=f"sd({c.name})" if c.name else "sd")


_SPACES = {
    "point": (1, []),
    "interval": (2, [(0, 1)]),
    "circle3": (3, [(0, 1), (1, 2), (0, 2)]),
    "circle6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
    # boundary of the 3-simplex
    "sphere2": (4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    # 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
    "torus7": (
        7,
        [tuple(sorted(((i + d) % 7 for d in offs))) for i in range(7) for offs in ((0, 1, 3), (0, 2, 3))],
    ),
    # 6-vertex projective plane (antipodal quotient of the icosahedron)
    "rp2_6": (
        6,
        [
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
            (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
        ],
    ),
    # solid 3-simplex; the smallest complex with a nonvacuous tetrahedron law
    "tetra_solid": (4, [(0, 1, 2, 3)]),
}


def standard_space(name: str) -> SimplicialComplex:
    """Named minimal triangulations used as test fixtures."""
    if name not in _SPACES:
        raise UnknownSpace(name)
    vertex_count, maximal = _SPACES[name]
    return build_complex(vertex_count, maximal, name=name)


def standard_space_names() -> list[str]:
    return sorted(_SPACES)
