"""Finite groups as multiplication tables, with homomorphisms and actions.

Elements are dense integer indices 0..n-1 and index 0 is always the identity.
Every higher structure in the package (crossed modules, cocycles, nerves)
stores these indices only, so exhaustive loops and hashing stay cheap.

Products of groups use a fixed, documented pair encoding:

    semidirect / direct product on pairs (h, g):  (h, g) -> h * |G| + g

so element identities are reproducible across runs and across the JSON
formats.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    MissingInverse,
    NoIdentityAtZero,
    NotAbelian,
    NotActionHom,
    NotAssociative,
    NotAutomorphism,
    NotHomomorphism,
)


class FiniteGroup:
    """A finite group given by its multiplication table.

    Use :func:`validate_group` (or one of the named builders below) rather
    than the constructor; the constructor trusts its input.
    """

    def __init__(self, table: np.ndarray, name: str = "G"):
        self.name = name
        self.table = np.asarray(table, dtype=np.int64)
        self.order = len(self.table)
        hits = self.table == 0
        self.inverse = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.table[self.table[g, x], self.inverse[g]])

    def elements(self) -> range:
        return range(self.order)

    def prod(self, xs: Iterable[int]) -> int:
        out = 0
        for x in xs:
            out = int(self.table[out, x])
        return out

    def power(self, a: int, n: int) -> int:
        out = 0
        for _ in range(n):
            out = int(self.table[out, a])
        return out

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != 0:
            x = int(self.table[x, a])
            n += 1
        return n

    def order_census(self) -> dict[int, int]:
        """Map from element order to how many elements have it."""
        census: dict[int, int] = {}
        for a in self.elements():
            o = self.element_order(a)
            census[o] = census.get(o, 0) + 1
        return census

    @functools.cached_property
    def class_labels(self) -> np.ndarray:
        """Conjugacy class of each element, classes numbered by their least
        element; computed once per group."""
        conj = self.table[self.table, self.inverse[:, None]]  # [g, x] = g x g^-1
        return np.unique(conj.min(axis=0), return_inverse=True)[1]

    @functools.cached_property
    def generators(self) -> tuple[int, ...]:
        """The greedy generating set of ``generating_set``; computed once
        per group."""
        return tuple(generating_set(self.table))

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def same_table(self, other: "FiniteGroup") -> bool:
        return self.order == other.order and bool(np.array_equal(self.table, other.table))

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


class GroupHom:
    """Group homomorphism dom -> cod stored as an index map."""

    def __init__(self, dom: FiniteGroup, cod: FiniteGroup, map: Sequence[int]):
        self.dom = dom
        self.cod = cod
        self.map = np.asarray(map, dtype=np.int64)

    def __call__(self, x: int) -> int:
        return int(self.map[x])

    def kernel(self) -> list[int]:
        return [int(x) for x in np.flatnonzero(self.map == 0)]

    def image(self) -> list[int]:
        return sorted(int(x) for x in set(self.map.tolist()))

    def is_injective(self) -> bool:
        return len(set(self.map.tolist())) == self.dom.order

    def is_surjective(self) -> bool:
        return len(set(self.map.tolist())) == self.cod.order

    def __repr__(self):
        return f"GroupHom({self.dom.name} -> {self.cod.name})"


class GroupAction:
    """Action of ``actor`` on ``target`` by automorphisms.

    ``perms[g]`` is the permutation of target elements implementing the
    automorphism for g; g -> perms[g] is a homomorphism into Aut(target),
    i.e. perms[g1 g2] = perms[g1] o perms[g2].
    """

    def __init__(self, actor: FiniteGroup, target: FiniteGroup, perms: Sequence[Sequence[int]]):
        self.actor = actor
        self.target = target
        self.perms = np.asarray(perms, dtype=np.int64)

    def apply(self, g: int, h: int) -> int:
        return int(self.perms[g, h])

    def is_trivial(self) -> bool:
        ident = np.arange(self.target.order)
        return all(np.array_equal(self.perms[g], ident) for g in self.actor.elements())

    def __repr__(self):
        return f"GroupAction({self.actor.name} on {self.target.name})"


# cells of the n x n x n associativity cube compared per chunk when Light's
# test fails and the first bad triple is wanted
_CUBE_CHUNK_CELLS = 1 << 22


def generating_set(t: np.ndarray, elements: Sequence[int] | None = None) -> list[int]:
    """Greedy generators of the group with multiplication table ``t``, or of
    its subgroup on ``elements``: each is the least element not yet reached
    from 0 by right multiplication with the generators chosen before it, so
    that every element is reached with all of them.  Elements outside the
    subgroup count as reached, as no generator leads from them into it."""
    n = len(t)
    reached = np.ones(n, dtype=bool)
    reached[range(n) if elements is None else elements] = False
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while len(frontier):
            fresh = np.zeros(n, dtype=bool)
            fresh[t[frontier[:, None], gens]] = True
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
    return gens


def _first_nonassociative_triple(t: np.ndarray):
    """Lexicographically first (a, b, c) with (ab)c != a(bc), or None; the
    cube is compared a block of rows a at a time."""
    n = len(t)
    rows = max(1, _CUBE_CHUNK_CELLS // (n * n))
    for a0 in range(0, n, rows):
        block = t[a0:a0 + rows]
        left = t[block]             # left[a, b, c]  = (ab)c
        right = block[:, t]         # right[a, b, c] = a(bc)
        hits = np.argwhere(left != right)
        if len(hits):
            a, b, c = (int(x) for x in hits[0])
            return a0 + a, b, c
    return None


def validate_group(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Check the three group axioms exhaustively and wrap the table.

    Associativity is checked by Light's test (Clifford and Preston, *The
    Algebraic Theory of Semigroups* I, 1.2): the elements a with
    (xa)y = x(ay) for all x, y are closed under multiplication and contain
    the identity, so it suffices to compare the n x n arrays of (xa)y and
    x(ay) for a in a set of generators, which is O(n^2) work per generator.
    Both arrays are read by ``take`` along one axis each.  Only when that
    fails is the n^3 cube scanned, in row blocks of bounded size, for the
    lexicographically first bad triple.

    Raises NoIdentityAtZero, NotAssociative (with that witness triple) or
    MissingInverse (with the least element lacking a two-sided inverse).
    """
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise NoIdentityAtZero("table must be a nonempty square array")
    n = t.shape[0]
    if t.min() < 0 or t.max() >= n:
        raise NoIdentityAtZero(f"table entries must lie in 0..{n - 1}")
    idx = np.arange(n)
    if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        raise NoIdentityAtZero("row/column 0 must act as the identity")
    grp = FiniteGroup(t, name=name)
    for a in grp.generators:
        if not np.array_equal(t.take(t[:, a], axis=0), t.take(t[a], axis=1)):
            raise NotAssociative(_first_nonassociative_triple(t))
    # the right inverse (first zero of a row) must also be a left inverse
    lacking = (grp.inverse < 0) | (t[grp.inverse, idx] != 0)
    if lacking.any():
        raise MissingInverse(int(np.argmax(lacking)))
    return grp


def validate_hom(dom: FiniteGroup, cod: FiniteGroup, map: Sequence[int]) -> GroupHom:
    """Check map(xy) = map(x) map(y) for all pairs; raises NotHomomorphism,
    with the first failing pair (x, y) in row-major order.

    It suffices to check every x against y in 0 and the generators of dom
    (``FiniteGroup.generators``), O(n k) work for k generators:

        if y and z pass for every x, so does yz, as map(x(yz)) = map(xy) map(z)
        = map(x) map(y) map(z) = map(x) map(yz); every element is a product
        of generators; and y = 0 passes iff map(0) = 0.

    The trivial group has no generators, so 0 is always checked.  Only when
    this fails are all n^2 pairs compared, for the first bad one.
    """
    m = np.asarray(map, dtype=np.int64)
    if len(m) != dom.order:
        raise NotHomomorphism(("length", len(m)))
    if m.min() < 0 or m.max() >= cod.order:
        raise NotHomomorphism(("range", int(m.max())))
    ys = [0, *dom.generators]
    if not np.array_equal(m[dom.table[:, ys]], cod.table[m[:, None], m[ys]]):
        lhs = m[dom.table]                 # map(xy)
        rhs = cod.table[np.ix_(m, m)]      # map(x) map(y)
        bad = np.argwhere(lhs != rhs)[0]
        raise NotHomomorphism(tuple(int(x) for x in bad))
    return GroupHom(dom, cod, m)


def validate_action(
    actor: FiniteGroup, target: FiniteGroup, perms: Sequence[Sequence[int]]
) -> GroupAction:
    """Check each perms[g] is an automorphism and g -> perms[g] is a hom;
    raises NotAutomorphism or NotActionHom.

    Once every perms[g] is a permutation, g -> perms[g] is a hom into the
    permutations of the target iff perms[g1 g] = perms[g1] o perms[g] for
    every g1 and g in 0 and the generators of actor, as in
    ``validate_hom``.  Every perms[g] is then a composite of those of the
    generators, so they are all automorphisms if those are.  These checks
    run as arrays; only when one fails are all g, and then all pairs, run
    in order, for the first failure.
    """
    p = np.asarray(perms, dtype=np.int64)
    if p.shape != (actor.order, target.order):
        raise NotActionHom(("shape", p.shape))
    gens = [0, *actor.generators]
    q, table = p[gens], target.table
    holds = (
        np.array_equal(np.sort(p, axis=1), np.broadcast_to(np.arange(target.order), p.shape))
        and np.array_equal(q[:, table], table[q[:, :, None], q[:, None, :]])
        and np.array_equal(p[actor.table[:, gens]], p[np.arange(actor.order)[:, None, None], q])
    )
    if not holds:
        _raise_first_action_failure(actor, target, p)
    return GroupAction(actor, target, p)


def _raise_first_action_failure(actor: FiniteGroup, target: FiniteGroup, p: np.ndarray) -> None:
    """The first g whose perms[g] is not an automorphism, or else the first
    pair (g1, g2) with perms[g1 g2] != perms[g1] o perms[g2]."""
    for g in actor.elements():
        perm = p[g]
        if not np.array_equal(np.sort(perm), np.arange(target.order)):
            raise NotAutomorphism(g, ("not a permutation",))
        lhs = perm[target.table]
        rhs = target.table[np.ix_(perm, perm)]
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)[0]
            raise NotAutomorphism(g, tuple(int(x) for x in bad))
    if not np.array_equal(p[0], np.arange(target.order)):
        raise NotActionHom((0, 0))
    for g1 in actor.elements():
        for g2 in actor.elements():
            if not np.array_equal(p[actor.mul(g1, g2)], p[g1][p[g2]]):
                raise NotActionHom((g1, g2))


def require_abelian(group: FiniteGroup) -> None:
    """Raises NotAbelian with the first pair (a, b), in row-major order, for
    which ab != ba."""
    unequal = np.argwhere(group.table != group.table.T)
    if len(unequal):
        raise NotAbelian(tuple(int(x) for x in unequal[0]))


def minimal_section(f: GroupHom) -> np.ndarray:
    """The least preimage of each element of the codomain, -1 off the image;
    the identity goes to the identity."""
    values, first = np.unique(f.map, return_index=True)
    section = np.full(f.cod.order, -1, dtype=np.int64)
    section[values] = first
    return section


def trivial_action(actor: FiniteGroup, target: FiniteGroup) -> GroupAction:
    perms = np.tile(np.arange(target.order), (actor.order, 1))
    return GroupAction(actor, target, perms)


def inversion_action(actor: FiniteGroup, target: FiniteGroup) -> GroupAction:
    """Order-2 actor element 1 acts on an abelian target by inversion."""
    perms = [list(range(target.order)), [target.inv(h) for h in target.elements()]]
    return validate_action(actor, target, perms)


def semidirect_product(actor: FiniteGroup, target: FiniteGroup, action: GroupAction) -> FiniteGroup:
    """Semidirect product target x| actor on pairs (h, g).

    Multiplication is (h, g) (h', g') = (h * action(g)(h'), g g') and the
    pair encoding is (h, g) -> h * |actor| + g.
    """
    ng = actor.order
    h, g = np.divmod(np.arange(target.order * ng), ng)
    hpart = target.table[h[:, None], action.perms[g[:, None], h[None, :]]]  # h * action(g)(h')
    table = hpart * ng + actor.table[g[:, None], g[None, :]]
    name = f"{target.name}x|{actor.name}"
    return FiniteGroup(table, name=name)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product on pairs (x, y) -> x * |b| + y."""
    prod = semidirect_product(b, a, trivial_action(b, a))
    prod.name = f"{a.name}x{b.name}"
    return prod


def conjugacy_classes(group: FiniteGroup) -> list[list[int]]:
    """Partition of elements under x ~ g x g^-1, classes sorted by minimum."""
    labels = group.class_labels
    return [np.flatnonzero(labels == i).tolist() for i in range(labels.max() + 1)]


def conjugacy_class_index(group: FiniteGroup, x: int) -> int:
    if not 0 <= x < group.order:
        raise ValueError(f"element {x} not in any class")
    return int(group.class_labels[x])


def hom_kernel_image(f: GroupHom) -> tuple[list[int], list[int]]:
    """Kernel and image as sorted element lists, verified closed."""
    ker = f.kernel()
    img = f.image()
    for s, grp in ((ker, f.dom), (img, f.cod)):
        members = set(s)
        for x in s:
            if grp.inv(x) not in members:
                raise MissingInverse(x)
            for y in s:
                if grp.mul(x, y) not in members:
                    raise NotHomomorphism((x, y))
    return ker, img


def identity_hom(group: FiniteGroup) -> GroupHom:
    return GroupHom(group, group, np.arange(group.order))


def subgroup_as_group(group: FiniteGroup, elements: Sequence[int], name: str = "sub") -> tuple[FiniteGroup, GroupHom]:
    """Reindex a subgroup (identity first, then ascending) as its own group.

    Returns the subgroup and its inclusion homomorphism.
    """
    elems = sorted(set(int(x) for x in elements))
    if 0 not in elems:
        raise NoIdentityAtZero("subgroup must contain the identity")
    pos = np.full(group.order, -1)
    pos[elems] = np.arange(len(elems))
    table = pos[group.table[np.ix_(elems, elems)]]
    if (table < 0).any():
        i, j = np.argwhere(table < 0)[0]
        raise NotHomomorphism((elems[i], elems[j]))
    sub = FiniteGroup(table, name=name)
    incl = GroupHom(sub, group, np.asarray(elems, dtype=np.int64))
    return sub, incl


# named builders used by fixtures and tests

def trivial_group() -> FiniteGroup:
    return FiniteGroup(np.zeros((1, 1), dtype=np.int64), name="Z1")


def cyclic_group(n: int) -> FiniteGroup:
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(table, name=f"Z{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on permutation tuples in lexicographic order; identity is first."""
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[pos[tuple(p[x] for x in q)] for q in perms] for p in perms], name=f"S{n}")


def klein_four_group() -> FiniteGroup:
    g = direct_product(cyclic_group(2), cyclic_group(2))
    g.name = "K4"
    return g
