"""Expected answers computed without the cohomology engine.

Every classify op in the benchmark is checked against a count derived here
from the group tables alone and from the known topology of the stock
spaces, never from ``classify_h1``.  The rules:

* contractible spaces (point, interval, tetra_solid) have one class;
* one-object coefficients (trivial G, so H is abelian) give the ordinary
  group H^2(M; H): |H| on the sphere and the torus, |H/2H| on RP^2 and one
  class on a circle;
* on a circle, classes are conjugacy classes of Q = G/t(H);
* on the 2-sphere, classes are alpha(G)-orbits on ker t;
* when t is injective (discrete coefficients included) the crossed module
  is equivalent to the discrete one on Q, so classes are Hom(pi1, Q)/Q.

Cocycle counts have closed forms for discrete coefficients,
|G|^(V-1) * |Hom(pi1, G)|, and for one-object coefficients, |H|^(T - Tet)
(the tetrahedron coboundary is onto because H^3 vanishes on every stock
space).  Witnesses are checked by an independent implementation of the
coboundary action.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

# fundamental group of each stock space: "1", "Z", "Z2" or "Z^2"
PI1 = {
    "point": "1",
    "interval": "1",
    "tetra_solid": "1",
    "sphere2": "1",
    "circle3": "Z",
    "circle6": "Z",
    "rp2_6": "Z2",
    "torus7": "Z^2",
}

# vertex order of the single loop of each circle
LOOPS = {"circle3": (0, 1, 2), "circle6": (0, 1, 2, 3, 4, 5)}


class Tables:
    """Plain numpy views of a crossed module, identity at index 0."""

    def __init__(self, xm):
        self.G = np.asarray(xm.G.table)
        self.H = np.asarray(xm.H.table)
        self.t = np.asarray(xm.t.map)
        self.alpha = np.asarray(xm.alpha.perms)
        self.ginv = np.argmin(self.G, axis=1)
        self.hinv = np.argmin(self.H, axis=1)
        ng = len(self.G)
        image = sorted(set(self.t.tolist()))
        # coset id of g in G/t(H): least element of g t(H)
        self.coset = np.array([min(int(self.G[g, n]) for n in image) for g in range(ng)])
        self.kernel = [h for h in range(len(self.H)) if self.t[h] == 0]

    def conj(self, a, x):
        return int(self.G[self.G[a, x], self.ginv[a]])

    def quotient(self):
        """Coset ids of Q = G/t(H) and a function multiplying two of them."""
        ids = sorted(set(self.coset.tolist()))
        return ids, lambda a, b: int(self.coset[self.G[a, b]])


def _orbit_count(points, moves):
    """Orbits of a finite set under a list of maps (closed under the group)."""
    seen, count = set(), 0
    for p in points:
        if p in seen:
            continue
        count += 1
        stack = [p]
        seen.add(p)
        while stack:
            x = stack.pop()
            for m in moves:
                y = m(x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def _pi1_homs(tb: Tables, pi1: str, quotient: bool):
    """(|Hom(pi1, Q)|, |Hom(pi1, Q)/Q|) with Q = G/t(H) or Q = G."""
    if quotient:
        elems, mul = tb.quotient()
        conj = lambda a, x: int(tb.coset[tb.conj(a, x)])
    else:
        elems, mul = list(range(len(tb.G))), lambda a, b: int(tb.G[a, b])
        conj = tb.conj
    actors = range(len(tb.G))
    one = int(tb.coset[0]) if quotient else 0
    if pi1 == "1":
        return 1, 1
    if pi1 == "Z":
        homs = [(x,) for x in elems]
    elif pi1 == "Z2":
        homs = [(x,) for x in elems if mul(x, x) == one]
    else:
        homs = [(x, y) for x in elems for y in elems if mul(x, y) == mul(y, x)]
    moves = [lambda h, a=a: tuple(conj(a, x) for x in h) for a in actors]
    return len(homs), _orbit_count(homs, moves)


def expected_classes(space: str, xm) -> int:
    tb = Tables(xm)
    pi1 = PI1[space]
    if pi1 == "1" and space != "sphere2":
        return 1
    if len(tb.G) == 1:
        n = len(tb.H)
        if pi1 == "Z":
            return 1
        if pi1 == "Z2":
            return n // len({int(tb.H[h, h]) for h in range(n)})
        return n
    if pi1 == "Z":
        return _pi1_homs(tb, "Z", quotient=True)[1]
    if space == "sphere2":
        moves = [lambda h, g=g: int(tb.alpha[g, h]) for g in range(len(tb.G))]
        return _orbit_count(tb.kernel, moves)
    if len(tb.kernel) == 1:
        return _pi1_homs(tb, pi1, quotient=True)[1]
    raise ValueError(f"no independent class count for {space} with {xm.name}")


def expected_cocycles(space: str, cx, xm):
    """Closed-form number of cocycles, or None where no closed form applies."""
    tb = Tables(xm)
    if len(tb.H) == 1:
        homs, _ = _pi1_homs(tb, PI1[space], quotient=False)
        return len(tb.G) ** (cx.vertex_count - 1) * homs
    if len(tb.G) == 1:
        return len(tb.H) ** (len(cx.simplices_of_dim(2)) - len(cx.simplices_of_dim(3)))
    return None


def candidate_count(cx, xm) -> int:
    """|G|^E * |ker t|^T: the rows a filter-based enumerator would visit."""
    tb = Tables(xm)
    return len(tb.G) ** len(cx.simplices_of_dim(1)) * len(tb.kernel) ** len(cx.simplices_of_dim(2))


def holonomy_class(tb: Tables, loop, g: dict) -> int:
    """Conjugacy class of the loop holonomy in G/t(H), as its least coset id."""
    hol = 0
    for a, b in zip(loop, loop[1:] + loop[:1]):
        val = g[(a, b)] if a < b else int(tb.ginv[g[(b, a)]])
        hol = int(tb.G[hol, val])
    return min(int(tb.coset[tb.conj(x, hol)]) for x in range(len(tb.G)))


def act(tb: Tables, g: dict, h: dict, f: dict, k: dict):
    """The coboundary action written out from the formulas of the paper:

    g'_ij  = f_i^-1 t(k_ij) g_ij f_j
    h'_ijk = alpha(f_i^-1)( k_ik h_ijk alpha(g_ij)(k_jk)^-1 k_ij^-1 )
    """
    G, H, t, alpha, ginv, hinv = tb.G, tb.H, tb.t, tb.alpha, tb.ginv, tb.hinv
    g2 = {(i, j): int(G[G[G[ginv[f[i]], t[k[(i, j)]]], v], f[j]]) for (i, j), v in g.items()}
    h2 = {}
    for (i, j, l), v in h.items():
        inner = H[H[H[k[(i, l)], v], hinv[alpha[g[(i, j)], k[(j, l)]]]], hinv[k[(i, j)]]]
        h2[(i, j, l)] = int(alpha[ginv[f[i]], inner])
    return g2, h2


def discrete(group):
    """The discrete crossed module on a group, as plain tables for the counts above."""
    return SimpleNamespace(
        name=f"discrete:{group.name}",
        G=group,
        H=SimpleNamespace(table=[[0]]),
        t=SimpleNamespace(map=[0]),
        alpha=SimpleNamespace(perms=[[0]] * group.order),
    )


def nerve_orders(xm, depth: int) -> list[int]:
    return [len(xm.G.table) * len(xm.H.table) ** p for p in range(depth + 1)]


def bar_pairs(ng: int, nh: int, p: int) -> list[int]:
    """Pairs of level-q strings of G |x bar(H): (|G| |H|^(q+1))^2 for q <= p."""
    return [(ng * nh ** (q + 1)) ** 2 for q in range(p + 1)]


def random_witness(rng, tb: Tables, vertices, edges):
    f = {v: rng.randrange(len(tb.G)) for v in vertices}
    k = {e: rng.randrange(len(tb.H)) for e in edges}
    return f, k

