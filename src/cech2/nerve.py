"""Truncated nerves of 2-groups as simplicial groups.

Level p of the nerve is the group of composable p-strings of morphisms.  A
string is determined by its start object together with the kernel parts of
its arrows, so level p is stored as tuples (g, h_1, ..., h_p) encoded as
g * |H|^p + (h_1 ... h_p in base |H|), with the levelwise multiplication

    (g, h_i) (g', h_i') = (g g', h_i * alpha(sigma_i)(h_i'))
    sigma_i = t(h_{i-1} ... h_1) g

Faces drop an end morphism or compose adjacent ones; degeneracies insert
identity morphisms.  ``check_level_iso`` compares this compact
representation with the definitional string model, the composable strings
of ``TwoGroup.strings`` and their pairwise products from
``TwoGroup.string_products``; ``check_bar_multiplication`` reads the same
two for G |x bar(H).  Both compare all n^2 pairs of strings, and each
n x n array they read is one ``take`` along the columns of an (n, m) block
of rows (a stored table with its rows permuted, or a group table at each
string's own element), not a two-index gather.

The table of a level of order n is the sum of p + 1 arrays of shape
(n, |G|) or (n, |H|), broadcast along the mixed-radix axes of the right
factor and added in the narrowest type that holds n - 1: O(n^2) work in
that type, with no n x n gather.  ``validate_group`` checks it by Light's
test over a generating set, in the same type, without an n^3 array.  The
faces and degeneracies are built from the codes split into a g column and
p kernel columns, O(n) each, and ``validate_hom`` checks each on the
generators of its domain, O(n k) for k generators.  The top level's order,
and the strings the checks multiply pairwise, are capped at
MAX_LEVEL_ORDER.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossed_modules import (
    MAX_LEVEL_ORDER,
    CrossedModule,
    segal_bar_two_group,
    semidirect_two_group,
    two_group_from_crossed_module,
)
from .errors import BudgetExceeded
from .groups import FiniteGroup, GroupAction, GroupHom, validate_group, validate_hom

DEFAULT_LEVEL_CAP = 4


@dataclass
class TruncatedSimplicialGroup:
    levels: list[FiniteGroup]
    faces: dict[int, list[GroupHom]]          # level p -> [d_0 .. d_p], p >= 1
    degeneracies: dict[int, list[GroupHom]]   # level p -> [s_0 .. s_p], p < top

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def _columns(n: int, p: int, nh: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Codes 0..n-1 of level p split into the g column and the p kernel
    columns h_1 .. h_p."""
    x = np.arange(n)
    hs = []
    for _ in range(p):
        x, r = np.divmod(x, nh)
        hs.append(r)
    return x, hs[::-1]


def _encode(g: np.ndarray, hs, nh: int) -> np.ndarray:
    code = g
    for h in hs:
        code = code * nh + h
    return code


def _level_table(xm: CrossedModule, p: int) -> FiniteGroup:
    """Multiplication table of level p, all n x n products at once.

    In x y the start object g_x g_y depends only on (x, g_y), and digit i,
    h_i(x) alpha(sigma_i(x))(h_i(y)), only on (x, h_i(y)).  So the table is
    the sum of p + 1 arrays of shape (n, |G|) or (n, |H|), each weighted by
    its place value and broadcast along one of y's mixed-radix axes, added
    in the narrowest type that holds n - 1.
    """
    G, H, t, alpha = xm.G, xm.H, xm.t, xm.alpha
    ng, nh = G.order, H.order
    n = ng * nh**p
    g, hs = _columns(n, p, nh)
    table = np.empty((n, ng) + (nh,) * p, dtype=np.min_scalar_type(n - 1))  # y split: g, h_1 .. h_p

    def along(part: np.ndarray, axis: int) -> np.ndarray:
        """An (n, m) array as the term of y's mixed-radix axis ``axis``."""
        shape = [n] + [1] * (p + 1)
        shape[axis + 1] = part.shape[1]
        return part.astype(table.dtype).reshape(shape)

    table[...] = along(G.table[g] * nh**p, 0)
    sigma = g
    for i, h in enumerate(hs):
        table += along(H.table[h[:, None], alpha.perms[sigma]] * nh ** (p - 1 - i), i + 1)
        sigma = G.table[t.map[h], sigma]
    return validate_group(table.reshape(n, n), name=f"N({xm.name})_{p}")


def nerve_two_group(xm: CrossedModule, depth: int = DEFAULT_LEVEL_CAP) -> TruncatedSimplicialGroup:
    """Levels 0..depth with all faces and degeneracies, each a verified hom.

    Raises ValueError on a negative depth, and BudgetExceeded when depth
    exceeds DEFAULT_LEVEL_CAP or the top level's order |G| |H|^depth exceeds
    MAX_LEVEL_ORDER, before any table is built.
    """
    if depth < 0:
        raise ValueError(f"nerve depth must be at least 0, got {depth}")
    if depth > DEFAULT_LEVEL_CAP:
        raise BudgetExceeded(depth, DEFAULT_LEVEL_CAP)
    G, H, t = xm.G, xm.H, xm.t
    nh = H.order
    top = G.order * nh**depth
    if top > MAX_LEVEL_ORDER:
        raise BudgetExceeded(top, MAX_LEVEL_ORDER)
    levels = [_level_table(xm, p) for p in range(depth + 1)]
    faces: dict[int, list[GroupHom]] = {}
    degeneracies: dict[int, list[GroupHom]] = {}
    for p in range(1, depth + 1):
        g, hs = _columns(levels[p].order, p, nh)
        cols = [_encode(G.table[t.map[hs[0]], g], hs[1:], nh)]
        cols += [
            _encode(g, hs[:i - 1] + [H.table[hs[i], hs[i - 1]]] + hs[i + 1:], nh)
            for i in range(1, p)
        ]
        cols.append(_encode(g, hs[:-1], nh))
        faces[p] = [validate_hom(levels[p], levels[p - 1], col) for col in cols]
    for p in range(depth):
        g, hs = _columns(levels[p].order, p, nh)
        zero = np.zeros_like(g)
        degeneracies[p] = [
            validate_hom(levels[p], levels[p + 1], _encode(g, hs[:i] + [zero] + hs[i:], nh))
            for i in range(p + 1)
        ]
    return TruncatedSimplicialGroup(levels, faces, degeneracies)


def check_simplicial_identities(nsg: TruncatedSimplicialGroup) -> dict:
    """All identities among faces and degeneracies, wherever both sides exist."""
    failures = []
    N = nsg.depth

    for p in range(2, N + 1):
        d = nsg.faces[p]
        dlow = nsg.faces[p - 1]
        for j in range(p + 1):
            for i in range(j):
                lhs = dlow[i].map[d[j].map]
                rhs = dlow[j - 1].map[d[i].map]
                if not np.array_equal(lhs, rhs):
                    failures.append(f"d{i} d{j} != d{j-1} d{i} at level {p}")
    for p in range(N - 1):
        s = nsg.degeneracies[p]
        shigh = nsg.degeneracies[p + 1]
        for j in range(p + 1):
            for i in range(j + 1):
                lhs = shigh[j + 1].map[s[i].map]
                rhs = shigh[i].map[s[j].map]
                if not np.array_equal(lhs, rhs):
                    failures.append(f"s{j+1} s{i} != s{i} s{j} at level {p}")
    for p in range(N):
        s = nsg.degeneracies[p]
        d = nsg.faces[p + 1]
        ident = np.arange(nsg.levels[p].order)
        for j in range(p + 1):
            for i in range(p + 2):
                composite = d[i].map[s[j].map]
                if i == j or i == j + 1:
                    if not np.array_equal(composite, ident):
                        failures.append(f"d{i} s{j} != id at level {p}")
                elif i < j:
                    if p >= 1:
                        expect = nsg.degeneracies[p - 1][j - 1].map[nsg.faces[p][i].map]
                        if not np.array_equal(composite, expect):
                            failures.append(f"d{i} s{j} != s{j-1} d{i} at level {p}")
                else:
                    if p >= 1:
                        expect = nsg.degeneracies[p - 1][j].map[nsg.faces[p][i - 1].map]
                        if not np.array_equal(composite, expect):
                            failures.append(f"d{i} s{j} != s{j} d{i-1} at level {p}")
    return {"ok": not failures, "failures": failures, "levels": [g.order for g in nsg.levels]}


def check_level_iso(nsg: TruncatedSimplicialGroup, xm: CrossedModule) -> dict:
    """Match every level against composable strings of the associated 2-group.

    A string maps to (start object, kernel parts of its arrows); the check
    confirms this is a bijection onto the stored level, turns string
    concatenation products into level products, and that the face maps do
    what faces of a nerve do (drop an end, compose in the middle).  A
    product from ``TwoGroup.string_products`` that is not a composable
    string counts as a mismatch.
    """
    tg = two_group_from_crossed_module(xm)
    ng, nh = xm.G.order, xm.H.order
    failures = []
    for p in range(nsg.depth + 1):
        x, arrows = tg.strings(p)
        level = nsg.levels[p]
        if len(x) != level.order:
            failures.append(f"level {p}: {len(x)} strings vs order {level.order}")
            continue
        ks = list(arrows.T // ng)
        codes = _encode(x, ks, nh)
        if np.bincount(codes).max() > 1:
            failures.append(f"level {p}: string coordinates collide")
            continue
        # componentwise string product realizes the level multiplication
        prod, composable = tg.string_products(x, arrows, np.arange(tg.mor.order) // ng, nh)
        if not (composable & (prod == level.table.astype(prod.dtype).take(codes, axis=0).take(codes, axis=1))).all():
            failures.append(f"level {p}: product mismatch")
        # faces against the string model, first failing string first
        if p >= 1:
            want = {0: _encode(tg.tgt.map[arrows[:, 0]], ks[1:], nh), p: _encode(x, ks[:-1], nh)}
            for i in range(1, p):
                mid = tg.compose(arrows[:, i - 1], arrows[:, i])
                want[i] = _encode(x, ks[:i - 1] + [mid // ng] + ks[i + 1:], nh)
            order = list(want)
            bad = np.array([want[i] != nsg.faces[p][i].map[codes] for i in order])
            if bad.any():
                first = int(np.argmax(bad.any(axis=0)))
                i = order[int(np.argmax(bad[:, first]))]
                failures.append(f"level {p}: d{i} disagrees with string model")
    return {
        "ok": not failures,
        "failures": failures,
        "levels": [g.order for g in nsg.levels],
    }


def check_bar_multiplication(G: FiniteGroup, H: FiniteGroup, alpha: GroupAction, p: int) -> dict:
    """Nerve levels of G |x bar(H) multiply by the twisted componentwise rule.

    A level q string (g, h_0) -> ... -> (g, h_q) reads as (g, (h_0 .. h_q)),
    and the product of two must be (g g', (h_i alpha(g)(h_i'))).  Each level
    up to p is checked on all pairs at once by ``TwoGroup.string_products``;
    "pairs" counts the pairs before the first mismatch in row-major order.
    Raises ValueError on a negative p, and BudgetExceeded above
    DEFAULT_LEVEL_CAP or MAX_LEVEL_ORDER strings, |G| |H|^(p+1), at once.
    """
    if p < 0:
        raise ValueError(f"bar depth must be at least 0, got {p}")
    if p > DEFAULT_LEVEL_CAP:
        raise BudgetExceeded(p, DEFAULT_LEVEL_CAP)
    top = G.order * H.order ** (p + 1)
    if top > MAX_LEVEL_ORDER:
        raise BudgetExceeded(top, MAX_LEVEL_ORDER)
    tg = semidirect_two_group(G, segal_bar_two_group(H), alpha)
    ng, nh = G.order, H.order
    target = np.arange(tg.mor.order) // ng % nh  # b of the morphism (g, (a, b))
    failures, pairs_checked = [], []
    for q in range(p + 1):
        x, arrows = tg.strings(q)
        code, ok = tg.string_products(x, arrows, target, nh)
        # the expected codes in the codes' own type, which holds them all
        h_mul, act, g_mul = (a.astype(code.dtype) for a in (H.table, alpha.perms, G.table))
        h0, g = np.divmod(x, ng)
        twisted = lambda h: h_mul[h[:, None], act[g]].take(h, axis=1)  # h alpha(g)(h')
        want = twisted(h0)
        want *= ng
        want += g_mul[g].take(g, axis=1)
        for h in target[arrows.T]:
            want *= nh
            want += twisted(h)
        ok &= code == want
        pairs_checked.append(ok.size if ok.all() else int(np.argmin(ok)))
        if not ok.all():
            failures.append(f"level {q}: bar multiplication mismatch")
    return {"ok": not failures, "failures": failures, "pairs": pairs_checked}
