"""Truncated nerves of 2-groups as simplicial groups.

Level p of the nerve is the group of composable p-strings of morphisms.  A
string is determined by its start object together with the kernel parts of
its arrows, so level p is stored as tuples (g, h_1, ..., h_p) encoded as
g * |H|^p + (h_1 ... h_p in base |H|), with the levelwise multiplication

    (g, h_i) (g', h_i') = (g g', h_i * alpha(sigma_i)(h_i'))
    sigma_i = t(h_{i-1} ... h_1) g

Arrow i of (g, h_i) is the morphism m_i = (h_i, sigma_i) of mor = H x| G,
and digit i of m_i(x) m_i(y) in mor is h_i(x) alpha(sigma_i(x))(h_i(y)),
while sigma_i is multiplicative by equivariance.  So the formula is the
componentwise product of mor^p read through the codes, for every crossed
module that passes ``validate_crossed_module``, and its group laws come
from mor, as those of ``semidirect_product`` do.  A ``NerveLevel`` is its
order, its generators and the formula as an array product, never a table.
One closure shows that the generators generate the level; each face and
degeneracy is a homomorphism checked on them, O(n k) for k generators.
``check_level_iso`` and ``check_bar_multiplication`` compare the strings
of ``TwoGroup.strings`` and ``TwoGroup.string_products`` with the formulas
on the strings of 0 and of the generators as right factors: a bijection
that is a hom on generators is an isomorphism.  Only a failing check scans
all pairs, in row blocks.  MAX_LEVEL_ORDER caps the top level's generator
columns, n (1 + k).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .crossed_modules import (
    CrossedModule,
    segal_bar_two_group,
    semidirect_two_group,
    two_group_from_crossed_module,
)
from .errors import BudgetExceeded, CechError, MissingInverse, NotHomomorphism
from .groups import MAX_LEVEL_ORDER, FiniteGroup, GroupAction, GroupHom, first_failure, validate_group

DEFAULT_LEVEL_CAP = 4


class NerveLevel:
    """Level p of the nerve of xm: codes 0..order-1 and their product.

    ``products`` is the nerve formula, which is the componentwise product of
    strings in mor^p read through the codes, so its group laws are those of
    mor (module docstring).  The generators are those of G at the start
    object, codes g |H|^p, and of H in each arrow slot i, h |H|^(p-1-i); the
    closure in ``nerve_two_group`` shows that they generate the level.
    """

    def __init__(self, xm: CrossedModule, p: int):
        G, H, nh = xm.G, xm.H, xm.H.order
        self.p, self.ng, self.nh, self.order = p, G.order, nh, G.order * nh**p
        self.generators = tuple(g * nh**p for g in G.generators)
        self.generators += tuple(h * nh ** (p - 1 - i) for i in range(p) for h in H.generators)
        # g g', h alpha(sigma)(h') and t(h) sigma as flat tables, read by take
        tables = G.table, H.table[:, xm.alpha.perms], G.table[xm.t.map]
        self.g_mul, self.twisted, self.moved = (a.ravel() for a in tables)

    def products(self, x, y) -> np.ndarray:
        """The codes of x_i y_j, shape (..., len x, len y) for x and y of
        shapes (..., len x) and (..., len y)."""
        ng, nh = self.ng, self.nh
        sigma, hs = _columns(np.asarray(x)[..., :, None], self.p, nh)
        gy, hys = _columns(np.asarray(y)[..., None, :], self.p, nh)
        code = self.g_mul.take(sigma * ng + gy)
        for h, hy in zip(hs, hys):  # digit i is h_i alpha(sigma_i)(h_i')
            at = h * ng + sigma
            code *= nh
            code += self.twisted.take(at * nh + hy)
            sigma = self.moved.take(at)
        return code

    @functools.cached_property
    def translations(self) -> np.ndarray:
        """(order, 1 + k): each code times 0 and times each generator."""
        return self.products(np.arange(self.order), [0, *self.generators])


@dataclass
class TruncatedSimplicialGroup:
    levels: list[NerveLevel]
    faces: dict[int, list[GroupHom]]          # level p -> [d_0 .. d_p], p >= 1
    degeneracies: dict[int, list[GroupHom]]   # level p -> [s_0 .. s_p], p < top

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def _columns(x: np.ndarray, p: int, nh: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Codes x of level p split into the g column and the p kernel columns
    h_1 .. h_p."""
    hs = []
    for _ in range(p):
        x, r = np.divmod(x, nh)
        hs.append(r)
    return x, hs[::-1]


def _encode(g: np.ndarray, hs, nh: int) -> np.ndarray:
    return functools.reduce(lambda code, h: code * nh + h, hs, g)


def _certify(level: NerveLevel) -> None:
    """The generators' right translations are permutations (MissingInverse
    names the first that is not) and reach every code from 0 (CechError)."""
    n, right = level.order, level.translations[:, 1:]
    for i in np.flatnonzero((np.sort(right, axis=0) != np.arange(n)[:, None]).any(axis=0))[:1]:
        raise MissingInverse(level.generators[i])
    seen, frontier = np.zeros(n, dtype=bool), np.zeros(1, dtype=np.intp)
    seen[0] = True
    while frontier.size:
        fresh = np.zeros(n, dtype=bool)
        fresh[right[frontier]] = True
        frontier = np.flatnonzero(fresh & ~seen)
        seen[frontier] = True
    if not seen.all():
        raise CechError(f"level {level.p}: the generators reach {int(seen.sum())} of {n} codes")


def _level_homs(dom: NerveLevel, cod: NerveLevel, maps: list[np.ndarray]) -> list[GroupHom]:
    """Each map m as a hom, once m(xy) = m(x) m(y) for every x and every y in
    0 and the generators of dom, as many maps at once as MAX_LEVEL_ORDER
    products allow; the first that fails is scanned for its first bad pair.

    That suffices: if y and z pass for every x, so does yz, as m(x(yz)) =
    m(xy) m(z) = m(x) m(y) m(z) = m(x) m(yz); every code is a product of
    generators (``_certify``); and y = 0 passes iff m(0) = 0.  A level has
    no table, so a pass over all pairs would cost n^2 products."""
    ms, n, ys = np.array(maps), dom.order, [0, *dom.generators]
    step = max(1, MAX_LEVEL_ORDER // dom.translations.size)  # maps per product
    blocks = np.split(ms, range(step, len(ms), step))
    ok = [(b[:, dom.translations] == cod.products(b, b[:, ys])).all(axis=(1, 2)) for b in blocks]
    for m in ms[~np.concatenate(ok)][:1]:
        bad = first_failure(n, n, lambda rows: m[dom.products(rows, np.arange(n))] == cod.products(m[rows], m))
        raise NotHomomorphism(divmod(bad, n))
    return [GroupHom(dom, cod, m) for m in ms]


def nerve_two_group(xm: CrossedModule, depth: int = DEFAULT_LEVEL_CAP) -> TruncatedSimplicialGroup:
    """Levels 0..depth with all faces and degeneracies, each a verified hom.

    Raises ValueError on a negative depth, and BudgetExceeded when depth
    exceeds DEFAULT_LEVEL_CAP or the top level's generator columns,
    |G| |H|^depth (1 + k) for k generators, exceed MAX_LEVEL_ORDER, before
    any product is taken.
    """
    if depth < 0:
        raise ValueError(f"nerve depth must be at least 0, got {depth}")
    if depth > DEFAULT_LEVEL_CAP:
        raise BudgetExceeded(depth, DEFAULT_LEVEL_CAP)
    levels = [NerveLevel(xm, p) for p in range(depth + 1)]
    work = levels[-1].order * (1 + len(levels[-1].generators))
    if work > MAX_LEVEL_ORDER:
        raise BudgetExceeded(work, MAX_LEVEL_ORDER)
    for level in levels:
        _certify(level)
    G, H, t, nh = xm.G, xm.H, xm.t, xm.H.order
    faces: dict[int, list[GroupHom]] = {}
    degeneracies: dict[int, list[GroupHom]] = {}
    for p in range(1, depth + 1):
        g, hs = _columns(np.arange(levels[p].order), p, nh)
        inner = [_encode(g, hs[:i - 1] + [H.table[hs[i], hs[i - 1]]] + hs[i + 1:], nh) for i in range(1, p)]
        ends = _encode(G.table[t.map[hs[0]], g], hs[1:], nh), _encode(g, hs[:-1], nh)
        faces[p] = _level_homs(levels[p], levels[p - 1], [ends[0], *inner, ends[1]])
    for p in range(depth):
        g, hs = _columns(np.arange(levels[p].order), p, nh)
        units = [_encode(g, hs[:i] + [np.zeros_like(g)] + hs[i:], nh) for i in range(p + 1)]
        degeneracies[p] = _level_homs(levels[p], levels[p + 1], units)
    return TruncatedSimplicialGroup(levels, faces, degeneracies)


def check_simplicial_identities(nsg: TruncatedSimplicialGroup) -> dict:
    """All identities among faces and degeneracies, wherever both sides exist."""
    d, s, N = nsg.faces, nsg.degeneracies, nsg.depth
    o = lambda g, f: g.map[f.map]  # g o f
    laws = [  # both sides, and the label of a failure with its fields
        (o(d[p - 1][i], d[p][j]), o(d[p - 1][j - 1], d[p][i]), "d{0} d{1} != d{2} d{0} at level {3}", (i, j, j - 1, p))
        for p in range(2, N + 1) for j in range(p + 1) for i in range(j)
    ]
    laws += [
        (o(s[p + 1][j + 1], s[p][i]), o(s[p + 1][i], s[p][j]), "s{2} s{0} != s{0} s{1} at level {3}", (i, j, j + 1, p))
        for p in range(N - 1) for j in range(p + 1) for i in range(j + 1)
    ]
    for p in range(N):
        ident = np.arange(nsg.levels[p].order)
        for j in range(p + 1):
            for i in range(p + 2):
                lhs = o(d[p + 1][i], s[p][j])
                if i in (j, j + 1):
                    laws.append((lhs, ident, "d{0} s{1} != id at level {2}", (i, j, p)))
                elif p >= 1 and i < j:
                    laws.append((lhs, o(s[p - 1][j - 1], d[p][i]), "d{0} s{1} != s{2} d{0} at level {3}", (i, j, j - 1, p)))
                elif p >= 1:
                    laws.append((lhs, o(s[p - 1][j], d[p][i - 1]), "d{0} s{1} != s{1} d{2} at level {3}", (i, j, i - 1, p)))
    failures = [label.format(*fields) for lhs, rhs, label, fields in laws if (lhs != rhs).any()]
    return {"ok": not failures, "failures": failures, "levels": [g.order for g in nsg.levels]}


def check_level_iso(nsg: TruncatedSimplicialGroup, xm: CrossedModule) -> dict:
    """Match every level against composable strings of the associated 2-group.

    A string maps to (start object, kernel parts of its arrows); the check
    confirms this is a bijection onto the level, turns string products into
    level products on the strings of 0 and of the generators, and that the
    face maps drop an end or compose in the middle.  A product that is not
    a composable string counts as a mismatch.
    """
    tg = two_group_from_crossed_module(xm)
    ng, nh = xm.G.order, xm.H.order
    digits = np.arange(tg.mor.order) // ng
    failures = []
    for p, level in enumerate(nsg.levels):
        x, arrows = tg.strings(p)
        if len(x) != level.order:
            failures.append(f"level {p}: {len(x)} strings vs order {level.order}")
            continue
        ks = list(arrows.T // ng)
        codes = _encode(x, ks, nh)
        if np.bincount(codes).max() > 1:
            failures.append(f"level {p}: string coordinates collide")
            continue
        # componentwise string product realizes the level multiplication
        cols = np.argsort(codes)[[0, *level.generators]]
        prod, composable = tg.string_products(x, arrows, digits, nh, (x[cols], arrows[cols]))
        if not (composable & (prod == level.translations[codes])).all():
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
    return {"ok": not failures, "failures": failures, "levels": [g.order for g in nsg.levels]}


def check_bar_multiplication(G: FiniteGroup, H: FiniteGroup, alpha: GroupAction, p: int) -> dict:
    """Nerve levels of G |x bar(H) multiply by the twisted componentwise rule.

    A level q string (g, h_0) -> ... -> (g, h_q) reads as (g, (h_0 .. h_q)),
    code (h_0 |G| + g) |H|^q + (h_1 .. h_q in base |H|), and the product of
    two must be (g g', (h_i alpha(g)(h_i'))).  "pairs" counts the pairs
    before the first mismatch in row-major order.  Once the morphisms pass
    Light's test, alpha is an action (read the associativity of
    H^2 x| G at the identity), so the rule is the group G |x H^(q+1); where
    the codes are a bijection, only the strings of 0 and of its generators
    (those of G at g, of H at each h_i) are right factors.  Otherwise, or
    when that fails, all pairs are scanned.  Raises ValueError on a negative
    p, and BudgetExceeded above DEFAULT_LEVEL_CAP or above MAX_LEVEL_ORDER
    generator-column products on top, |G| |H|^(p+1) (1 + k), at once.
    """
    if p < 0:
        raise ValueError(f"bar depth must be at least 0, got {p}")
    if p > DEFAULT_LEVEL_CAP:
        raise BudgetExceeded(p, DEFAULT_LEVEL_CAP)
    ng, nh = G.order, H.order
    work = ng * nh ** (p + 1) * (1 + len(G.generators) + (p + 1) * len(H.generators))
    if work > MAX_LEVEL_ORDER:
        raise BudgetExceeded(work, MAX_LEVEL_ORDER)
    tg = semidirect_two_group(G, segal_bar_two_group(H), alpha)
    try:
        by_generators = validate_group(tg.mor.table) is not None
    except CechError:
        by_generators = False
    target = np.arange(tg.mor.order) // ng % nh  # b of the morphism (g, (a, b))
    failures, pairs_checked = [], []
    for q in range(p + 1):
        x, arrows = tg.strings(q)
        chains = list(target[arrows.T])

        def holds(rows, cols):
            code, ok = tg.string_products(x[rows], arrows[rows], target, nh, (x[cols], arrows[cols]))
            (h0, g), (h0c, gc) = np.divmod(x[rows], ng), np.divmod(x[cols], ng)
            act = alpha.perms[g]
            want = H.table[h0[:, None], act[:, h0c]] * ng + G.table[g[:, None], gc]
            for h in chains:
                want = want * nh + H.table[h[rows, None], act[:, h[cols]]]
            return ok & (code == want)

        n, every, codes = len(x), np.arange(len(x)), _encode(x, chains, nh)
        if by_generators and n == ng * nh ** (q + 1) and np.bincount(codes).max() == 1:
            gens = [g * nh**q for g in G.generators]
            gens += [h * nh ** (q - i) * (ng if i == 0 else 1) for i in range(q + 1) for h in H.generators]
            if holds(every, np.argsort(codes)[[0, *gens]]).all():
                pairs_checked.append(n * n)
                continue
        bad = first_failure(n, n, lambda rows: holds(rows, every))
        pairs_checked.append(n * n if bad is None else bad)
        failures += [] if bad is None else [f"level {q}: bar multiplication mismatch"]
    return {"ok": not failures, "failures": failures, "pairs": pairs_checked}
