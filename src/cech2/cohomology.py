"""Cech 1-cocycles valued in a 2-group, coboundaries, and H^1 by brute force.

A cocycle assigns a G element g_ij to every increasing edge and an H element
h_ijk to every increasing triangle, subject to

    triangle law:     t(h_ijk) g_ij g_jk = g_ik
    tetrahedron law:  h_ikl h_ijk = h_ijl alpha(g_ij)(h_jkl)

The tetrahedron law is ordered as the triangle law forces it: expanding g_il
through the faces ikl, ijk and through ijl, jkl gives t of either side times
g_ij g_jk g_kl.  For abelian H it is the familiar cocycle identity in any order.

Values on repeated or descending index tuples are never stored; the usual
normalization (g_ii = 1, g_ji = g_ij^-1, h trivial on degenerate triples)
defines the rest of the Cech datum.

Two cocycles are cohomologous when vertex data f_i and edge data k_ij satisfy
the square law t(k_ij) g_ij f_j = f_i g'_ij together with a coherence
condition on triangles; solving that condition for h' gives the closed form

    g'_ij  = f_i^-1 t(k_ij) g_ij f_j
    h'_ijk = alpha(f_i^-1)( k_ik h_ijk alpha(g_ij)(k_jk)^-1 k_ij^-1 )

``_System.act`` applies it to digit matrices for every matrix user: moves are
one-row witnesses, re-slicing is one witness, and the witness searches sweep
blocks of witness rows.  ``apply_digits`` is its scalar form on one cocycle;
re-slicing one row is the same witness through it.

Witnesses form a group under composition and are generated by the elementary
ones supported on a single vertex or a single edge, so orbits (= cohomology
classes) are the components of the graph the elementary moves draw on the
valid cocycles.  ``classify_h1`` classifies every input on one gauge slice,
the maximal-tree gauge of lattice gauge theory: only the cocycles that are 1
on a forest of edges (p(j), j), p(j) the least smaller neighbour of j, and
the least of their coset t(H) g on every other edge are enumerated.  The
edge moves valued in K^G, the elements of ker t that every alpha(g) fixes,
are central among the witnesses and shift the triangle data by a fixed
delta, so the slice also keeps only the triangle data that are least in
their coset of the subgroup S those deltas generate, read off an echelon
chain of S.  The slice cocycles are closed under the moves that remain,
each followed by re-slicing, and each stands for the same number of
cocycles.

Enumeration extends partial cocycles edge by edge, then triangle by
triangle, in lexicographic order.  An edge that closes a triangle is solved
for: the triangle law puts it in one coset of t(H), so a row branches
|t(H)| ways, or one on the slice, and a row is dropped as soon as a law
fails on a simplex whose last face was just set; the work scales with the
surviving partial rows, not with |G|^E.  The steps are planned once per
``_System`` and mode (``_Plan``): a column that can only hold 1, such as a
forest edge on the slice, every edge when G is trivial or every triangle
when H is, gets no step, and where ker t is trivial one gather sets each
remaining triangle.  The budget caps, before any row or plan is built, the
product of the number of values each column may take, which bounds the
partial rows at every step:
|G|^E |ker t|^T over all cocycles, |G/t(H)|^(E-F) |ker t|^T on the slice,
F its forest edges.  Rows are looked up by their keys (``_System.keys``):
their digits as one byte string, whose byte order is the lexicographic
order of the rows.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .complexes import SimplicialComplex, barycentric_subdivide
from .crossed_modules import CrossedModule
from .errors import (
    BudgetExceeded,
    MoveLeavesCocycles,
    NotACycle,
    TetrahedronViolation,
    TriangleViolation,
)
from .groups import conjugacy_class_index, generating_set, minimal_section, require_abelian

DEFAULT_BUDGET = 10**6
DEFAULT_WITNESS_BUDGET = 10**6


@dataclass
class Cocycle:
    """Edge data g and triangle data h, on increasing tuples only."""

    g: dict[tuple[int, int], int]
    h: dict[tuple[int, int, int], int]

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.g.values()) and all(v == 0 for v in self.h.values())


def cocycle_to_json(c: Cocycle) -> dict:
    """The JSON form of a cocycle: simplices as comma-joined vertex keys."""
    return {
        "g": {",".join(map(str, e)): v for e, v in sorted(c.g.items())},
        "h": {",".join(map(str, t)): v for t, v in sorted(c.h.items())},
    }


@dataclass
class CoboundaryWitness:
    """Vertex data f and edge data k relating two cocycles."""

    f: dict[int, int]
    k: dict[tuple[int, int], int]

    def is_identity(self) -> bool:
        return all(v == 0 for v in self.f.values()) and all(v == 0 for v in self.k.values())


@dataclass
class Classification:
    """H^1 as a pointed set: orbits of valid cocycles under all witnesses.

    Of the slice it keeps only the keys of the rows (``_System.keys``) and
    their labels, where ``class_of`` and ``labels_of`` look up the keys of
    their re-sliced input.  ``stats`` records what the classification did,
    outside ``to_report``: the ``slice_rows`` listed, the ``fibre`` of
    cocycles each of them stands for, so that ``num_cocycles`` is their
    product, the ``roots`` of the forest (one per component of the space),
    the number of ``moves`` and the ``closure_rounds`` of label
    propagation.
    """

    representatives: list[Cocycle]
    base_class: int
    num_cocycles: int
    _sizes: list[int] = field(repr=False)
    _system: _System = field(repr=False)
    _keys: np.ndarray = field(repr=False)  # the slice rows' keys, increasing
    _labels: np.ndarray = field(repr=False)
    stats: dict = field(default_factory=dict, repr=False)

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    def sizes(self) -> list[int]:
        return list(self._sizes)

    def class_of(self, c: Cocycle) -> int:
        """Label of the class holding ``c``: the key of its re-sliced row,
        looked up by ``_search``.  Raises ValueError when ``c`` is not one of
        the classified cocycles.
        """
        sys = self._system
        gds, hds = sys.reslice_digits(*sys.cocycle_to_digits(c))
        (index,), (found,) = _search(self._keys, sys.keys([gds], [hds]))
        if not found:
            raise ValueError("not a valid cocycle of this classification")
        return int(self._labels[index])

    def labels_of(self, g_mat: np.ndarray, h_mat: np.ndarray) -> np.ndarray:
        """``class_of`` over whole digit matrices: the label of each row's class.

        Raises ValueError when some row is not one of the classified cocycles.
        """
        sys, n = self._system, len(g_mat)
        for mat, width, order in ((g_mat, len(sys.edges), sys.G.order), (h_mat, len(sys.tris), sys.H.order)):
            if mat.shape != (n, width) or (mat < 0).any() or (mat >= order).any():
                raise ValueError("not a valid cocycle of this classification")
        index, found = _search(self._keys, sys.keys(*sys.reslice(g_mat, h_mat)))
        if not found.all():
            raise ValueError("not a valid cocycle of this classification")
        return self._labels[index]

    def to_report(self) -> dict:
        return {
            "classes": self.class_count,
            "sizes": self.sizes(),
            "base_class": self.base_class,
            "representatives": [cocycle_to_json(r) for r in self.representatives],
        }


class CocycleSequence(Sequence):
    """Read-only cocycles over (edge digits, triangle digits) matrices.

    Rows stay numpy digits, in whatever integer type the matrices have (the
    enumerator's ``_System.digit``); every access builds a fresh ``Cocycle``
    of Python ints, so mutating one does not change the sequence.  Slices
    are sequences over the sliced rows, and ``==`` compares element by
    element with any sequence of cocycles.
    """

    def __init__(self, edges, tris, g_mat: np.ndarray, h_mat: np.ndarray):
        self._edges, self._tris = edges, tris
        self._g, self._h = g_mat, h_mat

    def __len__(self) -> int:
        return len(self._g)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CocycleSequence(self._edges, self._tris, self._g[i], self._h[i])
        i = operator.index(i)
        return self._cocycle(self._g[i], self._h[i])

    def __iter__(self):
        for gds, hds in zip(self._g, self._h):
            yield self._cocycle(gds, hds)

    def _cocycle(self, gds: np.ndarray, hds: np.ndarray) -> Cocycle:
        return Cocycle(g=dict(zip(self._edges, gds.tolist())), h=dict(zip(self._tris, hds.tolist())))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class _System:
    """Index bookkeeping for one (complex, coefficients) pair."""

    def __init__(self, cx: SimplicialComplex, xm: CrossedModule):
        self.cx = cx
        self.xm = xm
        self.G, self.H = xm.G, xm.H
        self.edges = cx.simplices_of_dim(1)
        self.tris = cx.simplices_of_dim(2)
        self.tets = cx.simplices_of_dim(3)
        self.vertex_set = frozenset(range(cx.vertex_count))
        self.eidx = {e: i for i, e in enumerate(self.edges)}
        self.tidx = {t: i for i, t in enumerate(self.tris)}
        self.tri_edges = [
            (self.eidx[(i, j)], self.eidx[(j, k)], self.eidx[(i, k)]) for (i, j, k) in self.tris
        ]
        # per tetrahedron: triangle slots (jkl, ikl, ijl, ijk) and the ij edge
        self.tet_parts = [
            (
                self.tidx[(j, k, l)],
                self.tidx[(i, k, l)],
                self.tidx[(i, j, l)],
                self.tidx[(i, j, k)],
                self.eidx[(i, j)],
            )
            for (i, j, k, l) in self.tets
        ]
        E, T = len(self.edges), len(self.tris)
        # the values a cocycle may take on edges and on triangles
        self.g_values = frozenset(range(self.G.order))
        self.h_values = frozenset(range(self.H.order))
        self.kernel_t = xm.t.kernel()
        self.t_section = minimal_section(xm.t)
        self.in_image_t = self.t_section >= 0
        # the tables as Python lists, for the scalar laws and actions
        self._gmul, self._ginv = self.G.table.tolist(), self.G.inverse.tolist()
        self._hmul, self._hinv = self.H.table.tolist(), self.H.inverse.tolist()
        self._t, self._alpha = xm.t.map.tolist(), xm.alpha.perms.tolist()
        # flat tables, edge ends, triangle edges and first vertices for act
        self._gflat, self._hflat, self._alphaflat = self.G.table.ravel(), self.H.table.ravel(), xm.alpha.perms.ravel()
        self._edge_cols = np.array(self.edges, dtype=np.int64).reshape(E, 2).T
        self._tri_cols = np.array(self.tri_edges, dtype=np.int64).reshape(T, 3).T
        self._tri_first = np.array([i for i, _, _ in self.tris], dtype=np.int64)
        self._edge_ends = [(e, i, j) for e, (i, j) in enumerate(self.edges)]
        self._tri_parts = [(ti, i, *parts) for ti, ((i, _, _), parts) in enumerate(zip(self.tris, self.tri_edges))]
        # the narrowest type that holds every digit, big-endian in keys
        self.digit = np.min_scalar_type(max(self.G.order, self.H.order) - 1)
        self._plans: dict[bool, _Plan] = {}
        self._init_slice()

    def _init_slice(self) -> None:
        """Tables of the gauge slice (see ``_classify_slice``).

        The forest holds the edge (p(j), j) of every vertex j with a smaller
        neighbour, p(j) the least of them; the other vertices are the roots.
        A slice cocycle is 1 on the forest and, on every other edge, the
        least element of the coset t(H) g of its value; on the triangles it
        is the least of its coset of S (see ``quotient``).
        """
        G, H = self.G, self.H
        parent_edge: dict[int, int] = {}
        for e, (_, j) in enumerate(self.edges):
            parent_edge.setdefault(j, e)  # edges are sorted, so the least i comes first
        self.forest = [parent_edge[j] for j in sorted(parent_edge)]
        self.roots = [v for v in range(self.cx.vertex_count) if v not in parent_edge]
        image = np.flatnonzero(self.in_image_t)
        self.coset_min = G.table[image[:, None], np.arange(G.order)[None, :]].min(axis=0)
        E = len(self.edges)
        self.fibre = G.order ** len(self.forest) * len(image) ** (E - len(self.forest))
        # lift[g]: the k with t(k) g = coset_min[g], which re-slices an edge
        self.lift = self.t_section[G.table[self.coset_min, G.inverse]]
        # t(H) trivial: every value is its coset minimum, lift and the
        # re-slicing edge witness are the identity
        self.lift_trivial = not self.lift.any()
        # the re-slicing walk: each non-root j in vertex order, with the
        # edge (p(j), j) and p(j)
        self.slice_walk = [(j, parent_edge[j], self.edges[parent_edge[j]][0]) for j in sorted(parent_edge)]
        self._lift = self.lift.tolist()
        # K^G: the elements of ker t that every alpha(g) fixes
        kernel = np.asarray(self.kernel_t, dtype=np.int64)
        self.central = np.zeros(H.order, dtype=bool)
        self.central[kernel[(self.xm.alpha.perms[:, kernel] == kernel).all(axis=0)]] = True

    @functools.cached_property
    def tables(self) -> tuple[list, list, np.ndarray, np.ndarray, np.ndarray]:
        """What both plans (``plan``) are built from, on first use.

        ``closing[e]`` lists (e_ij, e_ik) for each triangle whose last edge
        in lex order, its (j, k) edge, is e; ``closing_tets[p]`` the
        ``tet_parts`` of each tetrahedron whose last face is p.  In
        ``digit``, as the rows are: ``cosets[x]`` the coset t(H) x sorted,
        ``solved[a, b]`` the least element of t(H) a^-1 b, and
        ``preimages[d]`` the t-preimage of d sorted, for d in t(H).
        """
        G, H, digit = self.G, self.H, self.digit
        image = np.flatnonzero(self.in_image_t)
        kernel = np.asarray(self.kernel_t, dtype=np.int64)
        closing = [[] for _ in self.edges]
        for e_ij, e_jk, e_ik in self.tri_edges:
            closing[e_jk].append((e_ij, e_ik))
        closing_tets = [[] for _ in self.tris]
        for parts in self.tet_parts:
            closing_tets[max(parts[:4])].append(parts)
        cosets = np.sort(G.table[image[None, :], np.arange(G.order)[:, None]], axis=1).astype(digit)
        solved = self.coset_min[G.table[G.inverse[:, None], np.arange(G.order)[None, :]]].astype(digit)
        preimages = np.sort(H.table[kernel[None, :], self.t_section[:, None]], axis=1).astype(digit)
        return closing, closing_tets, cosets, solved, preimages

    def plan(self, on_slice: bool) -> _Plan:
        """The steps that list all cocycles, or the slice cocycles, built on
        first use in each mode (``_Plan``)."""
        if on_slice not in self._plans:
            self._plans[on_slice] = _Plan(self, on_slice)
        return self._plans[on_slice]

    @functools.cached_property
    def quotient(self) -> _Quotient:
        """The cosets of S, from the deltas of the edge moves valued in K^G at
        the basepoint; built on first use, as its cost grows with |E| |T|."""
        H, E, T = self.H, len(self.edges), len(self.tris)
        moves = [("e", e, x) for x in generating_set(H.table, np.flatnonzero(self.central)) for e in range(E)]
        basepoint = np.zeros((1, E), dtype=np.int64), np.zeros((1, T), dtype=np.int64)
        _, deltas = self.act(*basepoint, *self.move_witness(*moves))
        return _Quotient(H, list(deltas), T)

    def keys(self, g_mat, h_mat) -> np.ndarray:
        """Each row (g digits, h digits) as one byte string: its digits as
        big-endian ``digit`` values, then a zero digit, so that byte order is
        lexicographic order and a row without digits still has a key.  An
        element read from the result loses its trailing zero bytes, so keys
        are compared as arrays."""
        E = len(self.edges)
        digits = np.zeros((len(g_mat), E + len(self.tris) + 1), dtype=self.digit.newbyteorder(">"))
        digits[:, :E], digits[:, E:-1] = g_mat, h_mat
        return digits.view(f"S{digits.shape[1] * digits.itemsize}").ravel()

    # conversions

    def cocycle_to_digits(self, c: Cocycle) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Edge and triangle values in simplex order.

        Raises ValueError unless the maps are total and every edge value lies
        in G and every triangle value in H.
        """
        if c.g.keys() != self.eidx.keys() or c.h.keys() != self.tidx.keys():
            raise ValueError("cocycle maps must be total on edges and triangles")
        gds = tuple(map(c.g.__getitem__, self.edges))
        hds = tuple(map(c.h.__getitem__, self.tris))
        if not self.g_values.issuperset(gds):
            raise ValueError(f"edge value {_outside(gds, self.G.order)} is not an element of G")
        if not self.h_values.issuperset(hds):
            raise ValueError(f"triangle value {_outside(hds, self.H.order)} is not an element of H")
        return gds, hds

    def digits_to_cocycle(self, gds, hds) -> Cocycle:
        return Cocycle(
            g={e: int(v) for e, v in zip(self.edges, gds)},
            h={t: int(v) for t, v in zip(self.tris, hds)},
        )

    def witness_to_digits(self, w: CoboundaryWitness):
        if w.f.keys() != self.vertex_set or w.k.keys() != self.eidx.keys():
            raise ValueError("witness maps must be total on vertices and edges")
        return tuple(map(w.f.__getitem__, range(self.cx.vertex_count))), tuple(map(w.k.__getitem__, self.edges))

    def digits_to_witness(self, fds, kds) -> CoboundaryWitness:
        return CoboundaryWitness(
            f={v: int(x) for v, x in enumerate(fds)},
            k={e: int(x) for e, x in zip(self.edges, kds)},
        )

    # laws

    def check_digits(self, gds, hds) -> None:
        gmul, t = self._gmul, self._t
        for ti, _, e_ij, e_jk, e_ik in self._tri_parts:
            if gmul[t[hds[ti]]][gmul[gds[e_ij]][gds[e_jk]]] != gds[e_ik]:
                raise TriangleViolation(self.tris[ti])
        for tet, parts in zip(self.tets, self.tet_parts):
            if not self.tet_law_holds(gds, hds, parts):
                raise TetrahedronViolation(tet)

    def tet_law_holds(self, gds, hds, parts) -> bool:
        """h_ikl h_ijk = h_ijl alpha(g_ij)(h_jkl) on one tetrahedron."""
        hmul = self._hmul
        t_jkl, t_ikl, t_ijl, t_ijk, e_ij = parts
        return hmul[hds[t_ikl]][hds[t_ijk]] == hmul[hds[t_ijl]][self._alpha[gds[e_ij]][hds[t_jkl]]]

    # coboundary action on digit tuples

    def apply_digits(self, gds, hds, fds, kds):
        gmul, hmul, hinv, t, alpha = self._gmul, self._hmul, self._hinv, self._t, self._alpha
        finv = [self._ginv[x] for x in fds]
        g2 = tuple(gmul[gmul[gmul[finv[i]][t[kds[e]]]][gds[e]]][fds[j]] for e, i, j in self._edge_ends)
        h2 = tuple(
            alpha[finv[i]][hmul[hmul[hmul[kds[e_ik]][hds[ti]]][hinv[alpha[gds[e_ij]][kds[e_jk]]]]][hinv[kds[e_ij]]]]
            for ti, i, e_ij, e_jk, e_ik in self._tri_parts
        )
        return g2, h2

    def act(self, g_mat, h_mat, f, k) -> tuple[np.ndarray, np.ndarray]:
        """The coboundary action on digit matrices: row r of (g_mat, h_mat)
        moved by the witness in row r of (f, k), as new int64 matrices.

        Either side may have a single row, which then meets every row of the
        other.  The closed form runs on one contiguous row per simplex and
        flat product tables, in two passes: the edge data k, then the vertex
        data f.  Each pass rewrites only the simplices where some witness row
        is not the identity at a vertex or edge it reads, so a one-row
        witness rewrites only the columns it touches.
        """
        ng, nh, ginv, hinv = self.G.order, self.H.order, self.G.inverse, self.H.inverse
        gmul, hmul, alpha, t = self._gflat, self._hflat, self._alphaflat, self.xm.t.map
        f, k = np.ascontiguousarray(f.T, dtype=np.int64), np.ascontiguousarray(k.T, dtype=np.int64)
        rows = {len(g_mat), f.shape[1], k.shape[1]} - {1}
        n = rows.pop() if rows else 1
        g = np.empty((len(self.edges), n), dtype=np.int64)
        h = np.empty((len(self.tris), n), dtype=np.int64)
        g[...], h[...] = g_mat.T, h_mat.T
        f_set, k_set = f.any(axis=1), k.any(axis=1)
        # the edge data first, as it reads the old g_ij, then the vertex data
        (tris,) = k_set[self._tri_cols].any(axis=0).nonzero()
        if len(tris):
            ij, jk, ik = self._tri_cols[:, tris]
            inner = hmul[hmul[k[ik] * nh + h[tris]] * nh + hinv[alpha[g[ij] * nh + k[jk]]]]
            h[tris] = hmul[inner * nh + hinv[k[ij]]]
        (edges,) = k_set.nonzero()
        if len(edges):
            g[edges] = gmul[t[k[edges]] * ng + g[edges]]
        (tris,) = f_set[self._tri_first].nonzero()
        if len(tris):
            h[tris] = alpha[ginv[f[self._tri_first[tris]]] * nh + h[tris]]
        (edges,) = f_set[self._edge_cols].any(axis=0).nonzero()
        if len(edges):
            src, dst = self._edge_cols[:, edges]
            g[edges] = gmul[gmul[ginv[f[src]] * ng + g[edges]] * ng + f[dst]]
        return g.T, h.T

    # elementary witness moves: values drawn from generating sets suffice
    # because witnesses compose

    def moves(self):
        return [("v", v, a) for v in range(self.cx.vertex_count) for a in self.G.generators] + [
            ("e", e, x) for e in range(len(self.edges)) for x in self.H.generators
        ]

    def move_witness(self, *moves) -> tuple[np.ndarray, np.ndarray]:
        """Elementary moves as witness rows (f, k), one per move: the move's
        value at its vertex or edge, the identity elsewhere."""
        f = np.zeros((len(moves), self.cx.vertex_count), dtype=np.int64)
        k = np.zeros((len(moves), len(self.edges)), dtype=np.int64)
        for row, (kind, pos, val) in enumerate(moves):
            (f if kind == "v" else k)[row, pos] = val
        return f, k

    def witness_blocks(self, budget: int):
        """Every witness as blocks of (f digits, k digits) rows, f
        lexicographically major and then k, in blocks of 64 rows doubling up
        to 16384, as most searches stop early.  Raises BudgetExceeded, before
        any block is built, when |G|^V |H|^E exceeds ``budget``."""
        V, E = self.cx.vertex_count, len(self.edges)
        total, limit = self.G.order**V * self.H.order**E, min(budget, np.iinfo(np.int64).max)
        if total > limit:
            raise BudgetExceeded(total, limit)
        radix = np.array([self.G.order] * V + [self.H.order] * E, dtype=np.int64)
        weights = np.cumprod(radix[::-1])[::-1] // radix  # no product exceeds total, so none overflows

        def blocks(start=0, size=64):
            while start < total:
                digits = np.arange(start, min(start + size, total), dtype=np.int64)[:, None] // weights % radix
                yield digits[:, :V], digits[:, V:]
                start, size = start + size, min(2 * size, 2**14)

        return blocks()

    # the gauge slice

    @functools.cached_property
    def slice_moves(self) -> list[tuple[str, int, int]]:
        """The residual moves on the slice (see ``_classify_slice``): vertex
        moves at the roots over generators of G, edge moves on the forest over
        generators of H, and edge moves on every edge over generators of ker t,
        leaving out every edge move valued in K^G: on rows carried to the
        least of their coset of S it is the identity."""
        g_gens = self.G.generators
        h_gens = [x for x in self.H.generators if not self.central[x]]
        kernel_gens = [x for x in generating_set(self.H.table, self.kernel_t) if not self.central[x]]
        return (
            [("v", v, a) for v in self.roots for a in g_gens]
            + [("e", e, k) for e in self.forest for k in h_gens]
            + [("e", e, k) for e in range(len(self.edges)) for k in kernel_gens]
        )

    def reslice(self, g_mat: np.ndarray, h_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row carried into the slice by one witness, as new int64 matrices.

        Walking the non-root vertices in order, the vertex move at j by the
        inverse of the current g_(p(j), j) would clear the forest edge
        (p(j), j) without changing the forest edge of a smaller vertex.  These
        moves compose to one vertex witness, f_j = g_(p(j), j)^-1 f_p(j) with
        f = 1 at the roots.  The edge witness that then takes every edge value
        to the least element of its coset of t(H) composes with it, as
        ``compose_witnesses`` composes, to
        k_ij = alpha(f_i)(lift(f_i^-1 g_ij f_j)), and (f, k) is applied at
        once.  When t(H) is trivial, lift is the identity and so is k, which
        is then passed as one row of zeros.  The triangle data are then
        carried to the least of their coset of S.
        """
        G, gmul, ng = self.G, self._gflat, self.G.order
        f = np.zeros((self.cx.vertex_count, len(g_mat)), dtype=np.int64)
        for j, fe, p in self.slice_walk:
            f[j] = G.table[G.inverse[g_mat[:, fe]], f[p]]
        if self.lift_trivial:
            k = np.zeros((len(self.edges), 1), dtype=np.int64)
        else:
            f_i, f_j = f[self._edge_cols]  # edge by row, as act reads them
            lifted = self.lift[gmul[gmul[G.inverse[f_i] * ng + g_mat.T] * ng + f_j]]
            k = self._alphaflat[f_i * self.H.order + lifted]
        g_mat, h_mat = self.act(g_mat, h_mat, f.T, k.T)
        return g_mat, self.quotient.carry(h_mat)

    def reslice_digits(self, gds, hds) -> tuple[tuple[int, ...], list[int]]:
        """``reslice`` on one row, its witness (f, k) through ``apply_digits``;
        then the carries of S, element by element."""
        gmul, ginv, alpha, lift = self._gmul, self._ginv, self._alpha, self._lift
        f = [0] * self.cx.vertex_count
        for j, fe, p in self.slice_walk:
            f[j] = gmul[ginv[gds[fe]]][f[p]]
        if self.lift_trivial:
            k = [0] * len(self.edges)
        else:
            k = [alpha[f[i]][lift[gmul[gmul[ginv[f[i]]][gds[e]]][f[j]]]] for e, i, j in self._edge_ends]
        g2, h2 = self.apply_digits(gds, hds, f, k)
        return g2, self.quotient.carry_row(h2)


@functools.lru_cache(maxsize=128)
def _system(cx: SimplicialComplex, xm: CrossedModule) -> _System:
    """The ``_System`` of a (complex, coefficients) pair, built once.

    Both classes hash by identity, so a pair is found again only through the
    same two objects; the bound keeps the pairs used last, and covers the
    ~75 pairs a pass over all stock spaces and coefficients cycles through.
    """
    return _System(cx, xm)


def _outside(digits, order: int) -> int:
    """The first value in ``digits`` outside 0..order-1."""
    return next(x for x in digits if not 0 <= x < order)


def _search(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position of each of ``keys`` among ``sorted_keys``, and whether it
    is there."""
    index = np.minimum(sorted_keys.searchsorted(keys), len(sorted_keys) - 1)
    return index, sorted_keys[index] == keys


def _extend(mat: np.ndarray, col: int, values: np.ndarray) -> np.ndarray:
    """Each row of ``mat`` once per value of its row of ``values`` (n x m, or
    m values for every row), that value in column ``col``, the value varying
    fastest: one ``np.repeat`` and one strided write, no index arrays."""
    n, m = len(mat), values.shape[-1]
    out = np.repeat(mat, m, axis=0)
    out.reshape(n, m, mat.shape[1])[:, :, col] = values
    return out


class _Plan:
    """The steps ``_enumerate_digit_arrays`` runs for one ``_System`` and
    mode, in lexicographic order, and the tables they read, cast to
    ``digit`` once.  ``edge_steps`` each map the edge rows to new ones, then
    ``tri_steps`` each map both matrices; every step is a
    ``functools.partial`` of ``_extend`` or of a method below.

    A column that can only hold 1 is not set: a forest edge on the slice, an
    edge that closes nothing and has one allowed value, a solved edge whose
    inputs both hold 1, and a triangle whose inputs all hold 1 and which
    then admits only 1.  The trivial cocycle is a row of every listing, so
    such a column is 0 on every row, as the zero-filled matrices already
    hold.  A filter or tetrahedron check that reads only such columns passes
    on every row and is dropped; one that reads others still runs, so a
    triangle that holds 1 keeps its step while it closes such a tetrahedron.
    An edge holds 1 on every row only on the slice or where G is trivial,
    since in the full listing a free edge takes every value of G; in both
    cases a solved edge takes one value, so with inputs 1 it is 1.  Where H
    is trivial every triangle holds 1 and gets no step.  Where ker t is
    trivial each other triangle is set by one gather (``_force``) to the one
    preimage of its defect: S is then trivial, and the tetrahedron law
    holds, as it holds after t (module docstring) and t is injective.
    Otherwise each other triangle branches by ``_choose``.
    """

    def __init__(self, sys: _System, on_slice: bool):
        G, H, digit = sys.G, sys.H, sys.digit
        closing_tris, closing_tets, self.cosets, self.solved, self.preimages = sys.tables
        self.gmul, self.ginv = G.table.astype(digit), G.inverse.astype(digit)
        self.hmul, self.act = H.table.astype(digit), sys.xm.alpha.perms.astype(digit)
        self.minima = sys.coset_min.astype(digit)
        # a solved edge takes one value, its coset minimum
        self.solved_once = on_slice or self.cosets.shape[1] == 1
        # the values of an edge that closes nothing: G, or the coset minima
        values = (np.flatnonzero(sys.coset_min == np.arange(G.order)) if on_slice else np.arange(G.order)).astype(digit)
        forest = frozenset(sys.forest) if on_slice else frozenset()

        one_edges = set()  # the edges that are 1 on every row
        self.edge_steps = []
        for e, closing in enumerate(closing_tris):
            filters = closing
            if e in forest:
                one_edges.add(e)  # its triangles only filter
            elif closing:
                (e_ij, e_ik), filters = closing[0], closing[1:]
                if e_ij in one_edges and e_ik in one_edges:
                    one_edges.add(e)
                else:
                    self.edge_steps.append(functools.partial(self._solve, e, e_ij, e_ik))
            elif values.size > 1:
                self.edge_steps.append(functools.partial(_extend, col=e, values=values))
            else:
                one_edges.add(e)
            filters = [(e_ij, e_ik) for e_ij, e_ik in filters if not one_edges.issuperset((e, e_ij, e_ik))]
            if filters:
                self.edge_steps.append(functools.partial(self._filter, e, filters))

        # a triangle whose edges are all 1 has the defect 1
        unit_defect = [one_edges.issuperset(edges) for edges in sys.tri_edges]
        self.tri_steps = []
        if H.order == 1:
            return  # every triangle is 1
        if self.preimages.shape[1] == 1:
            for ti, edges in enumerate(sys.tri_edges):
                if not unit_defect[ti]:
                    self.tri_steps.append(functools.partial(self._force, ti, edges))
            return
        kernel = self.preimages[0]
        one_tris = set()  # the triangles that are 1 on every row
        for ti, (edges, tets) in enumerate(zip(sys.tri_edges, closing_tets)):
            allowed = sys.quotient.allowed[ti] if on_slice else None
            # defect 1 gives the choices ker t, of which S may admit only 1
            if unit_defect[ti] and allowed is not None and allowed[kernel].sum() == 1:
                one_tris.add(ti)
                tets = [parts for parts in tets if not (one_tris.issuperset(parts[:4]) and parts[4] in one_edges)]
                if not tets:
                    continue
            self.tri_steps.append(functools.partial(self._choose, ti, edges, allowed, tets))

    def _solve(self, e, e_ij, e_ik, g_mat):
        """Edge e in the coset t(H) g_ij^-1 g_ik of its first triangle: its
        minimum, or each row once per element."""
        coset = self.solved[g_mat[:, e_ij], g_mat[:, e_ik]]
        if self.solved_once:
            g_mat[:, e] = coset
            return g_mat
        return _extend(g_mat, e, self.cosets[coset])

    def _filter(self, e, closing, g_mat):
        """The rows whose edge e lies in the coset that each triangle
        (e_ij, e_ik) of ``closing`` puts it in, copied only if some are
        dropped."""
        coset = self.minima[g_mat[:, e]]
        keep = functools.reduce(
            operator.and_, (self.solved[g_mat[:, e_ij], g_mat[:, e_ik]] == coset for e_ij, e_ik in closing)
        )
        return g_mat if keep.all() else g_mat[keep]

    def _defect(self, edges, g_mat):
        """g_ik (g_ij g_jk)^-1 on each row, for the triangle of ``edges``."""
        e_ij, e_jk, e_ik = edges
        return self.gmul[g_mat[:, e_ik], self.ginv[self.gmul[g_mat[:, e_ij], g_mat[:, e_jk]]]]

    def _force(self, ti, edges, g_mat, h_mat):
        """Triangle ti set to the one preimage of its defect."""
        h_mat[:, ti] = self.preimages[self._defect(edges, g_mat), 0]
        return g_mat, h_mat

    def _choose(self, ti, edges, allowed, tets, g_mat, h_mat):
        """Each row once per value of triangle ti in the t-preimage of its
        defect that ``allowed`` admits (all, if None) and that passes the
        tetrahedron law on every tetrahedron of ``tets``."""
        choices = self.preimages[self._defect(edges, g_mat)]
        ok = np.ones(choices.shape, dtype=bool) if allowed is None else allowed[choices]
        for parts in tets:
            h_jkl, h_ikl, h_ijl, h_ijk = (choices if x == ti else h_mat[:, x, None] for x in parts[:4])
            ok &= self.hmul[h_ikl, h_ijk] == self.hmul[h_ijl, self.act[g_mat[:, parts[4], None], h_jkl]]
        # each row once per value ``ok`` allows it, the new digit fastest
        parent, choice = ok.nonzero()
        g_mat, h_mat = g_mat[parent], h_mat[parent]
        h_mat[:, ti] = choices[parent, choice]
        return g_mat, h_mat


def _enumerate_digit_arrays(sys: _System, budget: int, on_slice: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """All valid cocycles as (g digits, h digits) arrays in lexicographic order,
    or only the slice cocycles: those that are 1 on ``sys.forest``, take
    their coset minimum (``sys.coset_min``) on every other edge, and whose
    triangle p takes values x with ``sys.quotient.allowed[p, x]``.  Both are
    C-contiguous n x E and n x T matrices in ``sys.digit``, one byte per
    digit for groups of up to 256 elements: whoever computes with them
    widens them first, as ``act``, ``reslice`` and ``keys`` do.  Raises
    BudgetExceeded, before any row, the quotient or the plan is built, when
    the bound on the rows, |G|^E |ker t|^T or on the slice
    |G/t(H)|^(E-F) |ker t|^T, exceeds ``budget``: each edge takes at most
    |G| values, or one of its t(H) coset minima on the slice, and each
    triangle at most the |ker t| values of a t-preimage.

    Partial rows are extended one simplex at a time, edges then triangles in
    lexicographic order, with the new digit varying fastest, so the rows stay
    in lexicographic order throughout.  The steps are those of
    ``sys.plan(on_slice)``, built on the first call in each mode; a column
    that can only hold 1 gets none (``_Plan``).  The triangle i < j < k is
    closed by its edge (j, k), and as t(H) is normal its law puts g_jk in
    the coset t(H) g_ij^-1 g_ik.  So an edge that closes a triangle is
    solved from the first of them: each row branches into the |t(H)|
    elements of its coset, or takes just one, the coset minimum, on the
    slice or where t(H) is trivial.  Each further triangle it closes drops
    the rows whose value lies outside its coset, and so does every triangle
    a forest edge closes, that edge being 1 on the slice (no triangle ends
    in a forest edge (p(j), j), but the enumerator does not rely on that).
    An edge that closes nothing takes every value allowed it.  A triangle
    takes the values in the t-preimage of its defect, and a row is dropped
    as soon as the tetrahedron law fails on a tetrahedron whose last face
    it sets; where ker t is trivial every triangle is forced.  The work
    therefore scales with the surviving partial rows, not with |G|^E, and
    their number never exceeds the bound.

    The matrices are built in place and returned as they are.  A branch
    repeats each row, whole, once per value (``_extend``); a solved value is
    one gather into its column, as is a forced triangle; an edge's filter
    copies the rows it keeps, and only if it drops any.  A triangle with more than one preimage extends its rows by
    two int64 indices per new row.  Otherwise the traced peak holds, beside
    the output, only the rows before the last extension and one step's
    temporaries.
    """
    G, digit = sys.G, sys.digit
    bound = G.order ** len(sys.edges) // (sys.fibre if on_slice else 1) * len(sys.kernel_t) ** len(sys.tris)
    if bound > budget:
        raise BudgetExceeded(bound, budget)
    plan = sys.plan(on_slice)
    g_mat = np.zeros((1, len(sys.edges)), dtype=digit)
    for step in plan.edge_steps:
        g_mat = step(g_mat)
    h_mat = np.zeros((len(g_mat), len(sys.tris)), dtype=digit)
    for step in plan.tri_steps:
        g_mat, h_mat = step(g_mat, h_mat)
    return g_mat, h_mat


# public operations


def trivial_cocycle(cx: SimplicialComplex, xm: CrossedModule) -> Cocycle:
    """All-identity edge and triangle data; the basepoint of H^1."""
    return Cocycle(
        g={e: 0 for e in cx.simplices_of_dim(1)},
        h={t: 0 for t in cx.simplices_of_dim(2)},
    )


def identity_witness(cx: SimplicialComplex) -> CoboundaryWitness:
    return CoboundaryWitness(
        f={v: 0 for v in range(cx.vertex_count)},
        k={e: 0 for e in cx.simplices_of_dim(1)},
    )


def validate_cocycle(c: Cocycle, cx: SimplicialComplex, xm: CrossedModule) -> dict:
    """Check both laws on every increasing triangle and tetrahedron.

    Raises TriangleViolation or TetrahedronViolation with the offending
    simplex; returns a small summary when the cocycle is valid.
    """
    sys = _system(cx, xm)
    gds, hds = sys.cocycle_to_digits(c)
    sys.check_digits(gds, hds)
    return {"ok": True, "triangles": len(sys.tris), "tetrahedra": len(sys.tets)}


def apply_coboundary(
    c: Cocycle, w: CoboundaryWitness, cx: SimplicialComplex, xm: CrossedModule
) -> Cocycle:
    """The cocycle on the far side of the witness; output is again valid."""
    sys = _system(cx, xm)
    gds, hds = sys.cocycle_to_digits(c)
    fds, kds = sys.witness_to_digits(w)
    g2, h2 = sys.apply_digits(gds, hds, fds, kds)
    sys.check_digits(g2, h2)  # closure is an invariant, not a branch
    return sys.digits_to_cocycle(g2, h2)


def compose_witnesses(
    first: CoboundaryWitness, then: CoboundaryWitness, cx: SimplicialComplex, xm: CrossedModule
) -> CoboundaryWitness:
    """Witness equal to applying ``first`` and then ``then``.

    f_i = first.f_i * then.f_i and k_ij = alpha(first.f_i)(then.k_ij) * first.k_ij.
    """
    G, H, alpha = xm.G, xm.H, xm.alpha
    f = {v: G.mul(first.f[v], then.f[v]) for v in first.f}
    k = {
        e: H.mul(alpha.apply(first.f[e[0]], then.k[e]), first.k[e])
        for e in first.k
    }
    return CoboundaryWitness(f=f, k=k)


def cohomologous_check(
    c: Cocycle,
    c2: Cocycle,
    cx: SimplicialComplex,
    xm: CrossedModule,
    witness_budget: int = DEFAULT_WITNESS_BUDGET,
) -> Optional[CoboundaryWitness]:
    """First witness (f lexicographically major, then k) carrying c to c2.

    Exhaustive over G^V x H^E, swept in blocks of witness rows; returns None
    when the cocycles are not cohomologous.
    """
    sys = _system(cx, xm)
    blocks = sys.witness_blocks(witness_budget)
    source = [np.array([digits]) for digits in sys.cocycle_to_digits(c)]
    target_g, target_h = sys.cocycle_to_digits(c2)
    for f, k in blocks:
        g, h = sys.act(*source, f, k)
        hits = np.flatnonzero((g == target_g).all(axis=1) & (h == target_h).all(axis=1))
        if len(hits):
            return sys.digits_to_witness(f[hits[0]], k[hits[0]])
    return None


def enumerate_cocycles(
    cx: SimplicialComplex, xm: CrossedModule, budget: int = DEFAULT_BUDGET
) -> CocycleSequence:
    """All valid cocycles in lexicographic (edge digits, triangle digits) order,
    as a read-only sequence that builds a fresh ``Cocycle`` per access.  The
    sequence holds the enumerator's two digit matrices, one byte per digit
    for groups of up to 256 elements."""
    sys = _system(cx, xm)
    return CocycleSequence(sys.edges, sys.tris, *_enumerate_digit_arrays(sys, budget))


class _Quotient:
    """The cosets of the subgroup S of H^width the generators span, their
    values lying in an abelian subgroup of H.

    ``chain`` is the echelon chain of S, the abelian case of a Schreier-Sims
    stabilizer chain (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, ch. 4): per column p, {a: the transversal element of S that
    vanishes before p and takes the value a at p}, over the a in A_p, so
    |S| = ``order`` is the product of the |A_p|.  A vector v is sifted in at
    its first nonzero column p: if v_p is in A_p it loses t(v_p) and sifts
    on; otherwise A_p grows by the multiples of v_p, with
    t(a + j v_p) = t(a) + j v, and m v - t(m v_p) sifts on, m being the
    least j with j v_p in the old A_p.

    ``allowed[p, x]`` holds when x is least in its coset of A_p, so the rows
    whose every value is allowed are the least of their cosets, one per
    coset.  ``carry`` takes each row there column by column: the value at p
    selects the transversal element that takes it to the least of its coset
    of A_p, and later columns are read from the carried row.  Any nonzero
    element of S is first nonzero at a column p where it lies in A_p, so the
    result is the lex-least row of the coset.
    """

    def __init__(self, H, generators: list[np.ndarray], width: int):
        add, neg = H.table, H.inverse
        zero = np.zeros(width, dtype=np.int64)
        self.chain = chain = [{0: zero} for _ in range(width)]
        for v in generators:
            while (nonzero := np.flatnonzero(v)).size:
                p = nonzero[0]
                old = chain[p]
                if int(v[p]) in old:
                    v = add[v, neg[old[int(v[p])]]]
                    continue
                grown, multiple = {}, zero
                while not grown or int(multiple[p]) not in old:
                    for a, ta in old.items():
                        grown[int(add[a, multiple[p]])] = add[ta, multiple]
                    multiple = add[multiple, v]
                chain[p] = grown
                v = add[multiple, neg[old[int(multiple[p])]]]
        self.table, self.order = H.table, math.prod(map(len, chain))
        self.allowed = np.ones((width, H.order), dtype=bool)
        self.carries = []  # (p, the transversal element for each value) where A_p is not trivial
        for p, A in enumerate(chain):
            if len(A) > 1:
                least = H.table[:, list(A)].min(axis=1)
                self.allowed[p] = least == np.arange(H.order)
                self.carries.append((p, np.array([A[a][p:] for a in H.table[H.inverse, least].tolist()])))
        # the table as lists and each carry as (column, value) pairs, for one row
        self._add = H.table.tolist()
        self._carry_lists = [
            (p, [[(p + q, d) for q, d in enumerate(row) if d] for row in carry.tolist()]) for p, carry in self.carries
        ]

    def carry(self, h_mat: np.ndarray) -> np.ndarray:
        """Each row of ``h_mat`` carried, in place."""
        for p, carry in self.carries:
            h_mat[:, p:] = self.table[h_mat[:, p:], carry[h_mat[:, p]]]
        return h_mat

    def carry_row(self, hds) -> list[int]:
        """``carry`` on one row, element by element."""
        row, add = list(hds), self._add
        for p, carry in self._carry_lists:
            for q, d in carry[row[p]]:
                row[q] = add[row[q]][d]
        return row


def _classify_slice(sys: _System, g_mat: np.ndarray, h_mat: np.ndarray) -> Classification:
    """Classes of the slice cocycles (rows in lexicographic order) under the
    residual moves, each followed by ``_System.reslice``.

    The slice holds the cocycles that are 1 on the forest edges (p(j), j)
    and, on every other edge, the least element of the coset t(H) g of their
    value.  Why the residual moves of ``_System.slice_moves`` suffice: let Q
    be the witnesses with f = 1 at the roots, H^E x| G^non-roots.  It is the
    kernel of the projection of the witness group W onto G^roots, so Q is
    normal and W = Q x| G^roots.  Within a Q-orbit, the vertex moves along
    the forest fix the forest edges one by one and the edge moves fix each
    coset, so the slice meets the g-part of every Q-orbit in exactly one g.
    Two slice rows of one Q-orbit then differ by an element of the
    stabiliser of that g in Q.  Its f-part is the homomorphism onto
    t(H)^non-roots given by the k on the forest, and the elements with f = 1
    are (ker t)^E, so it is an extension of t(H)^non-roots by (ker t)^E; the
    re-sliced forest-edge moves over generators x of H have f = t(x)^-1 on
    the subtree of a vertex, and these generate t(H)^non-roots, and the ker t edge moves
    generate (ker t)^E.  The root vertex moves over generators of G then join
    the Q-orbits of one W-orbit, since Q a = a Q.  So the classes are the
    components of the graph the re-sliced residual moves draw on the slice.
    Each re-sliced move permutes the slice: two slice rows with one image
    lie in one Q-orbit, since the move normalises Q, so they share their g,
    and the move and the re-slicing then act on both by one witness, which
    is a bijection on the triangle data.

    The quotient by K^G.  The Peiffer identity alpha(t(k))(h) = k h k^-1
    makes ker t central in H, so an edge witness k valued in K^G, the part
    of ker t every alpha(g) fixes, keeps g and turns h_ijk into
    h_ijk k_ik k_jk^-1 k_ij^-1 on every row: a translation by an element of
    S, the subgroup the deltas read at the basepoint generate.  It is
    central in W, as composing it with (f, k') on either side gives
    (f, k' k).  So these witnesses form a normal subgroup N, their orbits
    are the cosets of S, classes are the orbits of W/N on them, and the
    slice keeps the least row of each coset (``_Quotient``).  Re-slicing reads
    only g, which N keeps, so it commutes with N, each re-sliced move
    followed by the carry permutes these rows, and the edge moves valued in
    K^G are the identity on them.

    Exactly ``sys.fibre`` |S| cocycles re-slice to each slice row: the forest
    values are free, every other edge value is free within its coset, the
    re-slicing witness those values fix acts on the triangle data as a
    bijection, and the row then stands for the |S| members of its coset.  A
    class therefore has that many cocycles per slice row.  Its least
    cocycle lies in the slice, since one move makes any other cocycle
    smaller: the vertex move at j clearing a nonzero (p(j), j) changes only
    that edge and later ones, as no edge (i, j) has i < p(j), the edge move
    taking g_e to its coset minimum changes only triangle digits after it,
    and the carry changes only triangle digits at and after its column.
    So the least slice row of a class is its least cocycle, and classes
    are numbered and represented as the full orbit closure numbers them.
    Classes are the components found by min-label propagation with pointer
    jumping (Tarjan, JACM 1975).
    """
    keys = sys.keys(g_mat, h_mat)
    n, fibre = len(g_mat), sys.fibre * sys.quotient.order

    neighbours = []
    for move in sys.slice_moves:
        nbr, found = _search(keys, sys.keys(*sys.reslice(*sys.act(g_mat, h_mat, *sys.move_witness(move)))))
        if not found.all():
            left = np.argmin(found)
            raise MoveLeavesCocycles(move, sys.digits_to_cocycle(g_mat[left], h_mat[left]))
        neighbours.append(nbr)

    # every re-sliced move permutes the slice, so the least label reachable
    # along moves is the least label of the class
    labels, rounds = np.arange(n, dtype=np.int64), 0
    while True:
        rounds += 1
        before = labels
        for nbr in neighbours:
            labels = np.minimum(labels, labels[nbr])
        labels = labels[labels]
        if np.array_equal(labels, before):
            break

    roots, labels = np.unique(labels, return_inverse=True)
    reps = [sys.digits_to_cocycle(g_mat[r], h_mat[r]) for r in roots]
    return Classification(
        representatives=reps,
        base_class=int(labels[0]),  # row 0 is the trivial cocycle, the least key
        num_cocycles=n * fibre,
        _sizes=[size * fibre for size in np.bincount(labels).tolist()],
        _system=sys,
        _keys=keys,
        _labels=labels,
        stats={
            "slice_rows": n,
            "fibre": fibre,
            "roots": len(sys.roots),
            "moves": len(sys.slice_moves),
            "closure_rounds": rounds,
        },
    )


def classify_h1(
    cx: SimplicialComplex, xm: CrossedModule, budget: int = DEFAULT_BUDGET
) -> Classification:
    """Partition all valid cocycles into cohomology classes.

    Orbits are generated by elementary witnesses (vertex moves valued in a
    generating set of G, edge moves in a generating set of H); witnesses
    compose, so this reaches the full orbit of the witness group.  Every
    instance is classified on its gauge slice (see ``_classify_slice``):
    only the cocycles that are 1 on a forest of edges, coset-minimal on the
    other edges and least in their coset of S on the triangles are
    enumerated and closed under the residual moves, each move followed by
    re-slicing.  The edge moves valued in K^G need no closure: they are
    central among the witnesses, so their orbits are the cosets of S in
    every class alike.  Every slice cocycle stands for the same number of
    cocycles.  Classes are numbered by their least cocycle, which is also
    their representative.  ``stats`` says what the slice listed.  The budget
    caps the bound on the slice rows, |G/t(H)|^(E-F) |ker t|^T.
    """
    sys = _system(cx, xm)
    return _classify_slice(sys, *_enumerate_digit_arrays(sys, budget, on_slice=True))


# independent oracles


def _smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero diagonal of a Smith-equivalent form of an integer matrix."""
    a = [row[:] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    top = 0
    while top < m and top < n:
        pivot = _least_entry(a, top)
        if pivot is None:
            break
        bi, bj = pivot
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]
        # clear the pivot row and column, restarting if remainders appear
        while True:
            pivot_row = a[top]
            p = pivot_row[top]
            support = [j for j in range(top, n) if pivot_row[j]]
            done = True
            for i in range(top + 1, m):
                q = a[i][top] // p
                if q:
                    row = a[i]
                    for j in support:
                        row[j] -= q * pivot_row[j]
                if a[i][top] != 0:
                    a[top], a[i] = a[i], a[top]
                    done = False
                    break
            if not done:
                continue
            # the column below the pivot is clear, so a column operation
            # changes only the pivot row
            for j in range(top + 1, n):
                pivot_row[j] -= pivot_row[j] // p * p
                if pivot_row[j] != 0:
                    for i in range(m):
                        a[i][top], a[i][j] = a[i][j], a[i][top]
                    done = False
                    break
            if done:
                break
        diag.append(abs(a[top][top]))
        top += 1
    return [d for d in diag if d != 0]


def _least_entry(a: list[list[int]], top: int) -> Optional[tuple[int, int]]:
    """(row, column) of the first nonzero entry of least magnitude, in
    row-major order, among the rows and columns of ``a`` from ``top`` on;
    None if all are zero.  A unit ends the scan, as no entry is less."""
    least, where = 0, None
    for i in range(top, len(a)):
        row = a[i]
        for j in range(top, len(row)):
            x = abs(row[j])
            if x and (not least or x < least):
                least, where = x, (i, j)
                if x == 1:
                    return where
    return where


def _hom_sizes(H, rows: list[list[int]], cols: int) -> tuple[int, int]:
    """(|kernel|, |image|) of an integer matrix acting on H^cols."""
    diag = _smith_diagonal(rows) if rows and cols else []
    image = 1
    kernel = H.order ** (cols - len(diag))
    for d, count in collections.Counter(diag).items():
        tor = sum(H.power(x, d) == 0 for x in H.elements())  # the d-torsion of H
        kernel *= tor**count
        image *= (H.order // tor) ** count
    return kernel, image


def _coboundary_rows(simplices, faces) -> list[list[int]]:
    """Per simplex, the alternating sum of its faces as a row over ``faces``."""
    index = {s: i for i, s in enumerate(faces)}
    rows = []
    for s in simplices:
        row = [0] * len(faces)
        for drop in range(len(s)):
            row[index[s[:drop] + s[drop + 1 :]]] += (-1) ** drop
        rows.append(row)
    return rows


def abelian_oracle_h2(cx: SimplicialComplex, H) -> int:
    """|H^2(cx; H)| for abelian H, by integer linear algebra on the cochain
    complex (Smith form of the coboundary matrices plus torsion counts).

    Independent of the cocycle enumeration machinery: this is the oracle the
    one-object coefficient case must reproduce.
    """
    require_abelian(H)
    edges, tris = cx.simplices_of_dim(1), cx.simplices_of_dim(2)
    kernel2, _ = _hom_sizes(H, _coboundary_rows(cx.simplices_of_dim(3), tris), len(tris))
    _, image1 = _hom_sizes(H, _coboundary_rows(tris, edges), len(edges))
    if kernel2 % image1:
        raise ValueError("cochain complex is not a complex; check the coboundaries")
    return kernel2 // image1


def holonomy_oracle(cx: SimplicialComplex, c: Cocycle, xm: CrossedModule) -> int:
    """Conjugacy class of the ordered edge product around a cycle graph.

    The traversal starts at vertex 0 toward its smaller neighbor; edges met
    against their increasing orientation contribute inverses.  Coefficients
    must be discrete (trivial H).
    """
    if not xm.is_discrete():
        raise ValueError("holonomy oracle needs discrete coefficients")
    edges = cx.simplices_of_dim(1)
    if cx.simplices_of_dim(2) or not edges:
        raise NotACycle("complex must be a bare cycle graph")
    nbrs: dict[int, list[int]] = {}
    for (i, j) in edges:
        nbrs.setdefault(i, []).append(j)
        nbrs.setdefault(j, []).append(i)
    if len(nbrs) != cx.vertex_count or any(len(v) != 2 for v in nbrs.values()):
        raise NotACycle("every vertex must have exactly two neighbors")
    G = xm.G
    hol = 0
    prev, at = None, 0
    nxt = min(nbrs[0])
    steps = 0
    while True:
        edge = (at, nxt) if at < nxt else (nxt, at)
        val = c.g[edge]
        hol = G.mul(hol, val if at < nxt else G.inv(val))
        prev, at = at, nxt
        steps += 1
        if at == 0:
            break
        a, b = nbrs[at]
        nxt = b if a == prev else a
    # every vertex has two neighbours, so the walk ends after the edges of its own cycle
    if steps != len(edges):
        raise NotACycle("edges do not form a single cycle")
    return conjugacy_class_index(G, hol)


def refine_compare(
    cx: SimplicialComplex, xm: CrossedModule, budget: int = DEFAULT_BUDGET
) -> tuple[int, int]:
    """Class counts on the complex and on its barycentric subdivision."""
    first = classify_h1(cx, xm, budget=budget).class_count
    second = classify_h1(barycentric_subdivide(cx), xm, budget=budget).class_count
    return first, second
