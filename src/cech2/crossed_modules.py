"""Crossed modules, their strict 2-groups, homomorphisms and exact sequences.

A crossed module (G, H, t, alpha) packages two finite groups, a homomorphism
t: H -> G and an action alpha of G on H by automorphisms, subject to

    equivariance:  t(alpha(g)(h)) = g t(h) g^-1
    Peiffer:       alpha(t(h))(h') = h h' h^-1

The associated strict 2-group has object group G and morphism group H x| G,
where (h, g) is a morphism g -> t(h) g.  The 2-group is a validated view of
the crossed module, never an independent store.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BudgetExceeded,
    EquivarianceViolation,
    IsoCheckFailed,
    NotComposable,
    NotExact,
    PeifferViolation,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    direct_product,
    generating_set,
    identity_hom,
    require_abelian,
    semidirect_product,
    subgroup_as_group,
    trivial_action,
    trivial_group,
    validate_action,
    validate_group,
    validate_hom,
)

AUT_ENUMERATION_BOUND = 12
# most strings multiplied pairwise, a few n x n int64 arrays of 32 MB each
MAX_LEVEL_ORDER = 2048


class CrossedModule:
    """Validated coefficient object (G, H, t, alpha)."""

    def __init__(self, G: FiniteGroup, H: FiniteGroup, t: GroupHom, alpha: GroupAction, name: str = ""):
        self.G = G
        self.H = H
        self.t = t
        self.alpha = alpha
        self.name = name or f"({H.name}->{G.name})"

    def is_discrete(self) -> bool:
        return self.H.order == 1

    def __repr__(self):
        return f"CrossedModule({self.name}, |G|={self.G.order}, |H|={self.H.order})"


class TwoGroup:
    """Strict 2-group: groups of objects and morphisms plus structure maps.

    ``compose`` is the groupoid composition, on ints or int arrays.
    ``strings(p)`` is the one listing of composable p-strings and
    ``string_products`` the one pairwise product of strings: the nerve's
    level check, the bar check and the interchange law all read these two.
    """

    def __init__(
        self,
        ob: FiniteGroup,
        mor: FiniteGroup,
        src: GroupHom,
        tgt: GroupHom,
        unit: GroupHom,
        compose: Callable,
        name: str = "",
    ):
        self.ob = ob
        self.mor = mor
        self.src = src
        self.tgt = tgt
        self.unit = unit
        self._compose = compose
        self.name = name or "2-group"

    def compose(self, first, then):
        """then o first, on ints or elementwise on int arrays of one shape;
        NotComposable at the first place where tgt(first) != src(then)."""
        ends, starts = self.tgt.map[first], self.src.map[then]
        bad = np.flatnonzero(ends != starts)
        if bad.size:
            raise NotComposable(int(ends.flat[bad[0]]), int(starts.flat[bad[0]]))
        out = self._compose(np.asarray(first), np.asarray(then))
        return int(out) if out.ndim == 0 else out

    def strings(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Composable p-strings as (start objects, n x p arrows), ordered by
        start object and then by arrows.

        src is onto, as unit is a section of it, so every object has the same
        number k of outgoing arrows and they fit one row each of ``by_src``.
        """
        by_src = np.argsort(self.src.map, kind="stable").reshape(self.ob.order, -1)
        x = end = np.arange(self.ob.order)
        arrows, k = np.empty((len(x), 0), dtype=np.int64), by_src.shape[1]
        for _ in range(p):
            m = by_src[end].ravel()
            x, arrows = x.repeat(k), np.column_stack([arrows.repeat(k, axis=0), m])
            end = self.tgt.map[m]
        return x, arrows

    def string_products(self, x: np.ndarray, arrows: np.ndarray, digits: np.ndarray, radix: int):
        """Products of all pairs of strings (x, arrows), row times column: the
        product of (x, m_1 .. m_p) and (y, n_1 .. n_p) is (x y, m_i n_i).

        Returns the n x n products encoded from the start object x y one
        arrow at a time, code * radix + digits[m_i n_i], and the mask of
        composable products.  BudgetExceeded above MAX_LEVEL_ORDER strings,
        before any n x n array.
        """
        if len(x) > MAX_LEVEL_ORDER:
            raise BudgetExceeded(len(x), MAX_LEVEL_ORDER)
        code = end = self.ob.table[x[:, None], x[None, :]]
        composable = np.ones(code.shape, dtype=bool)
        for m in arrows.T:
            pm = self.mor.table[m[:, None], m[None, :]]
            composable &= self.src.map[pm] == end
            end = self.tgt.map[pm]
            code = code * radix + digits[pm]
        return code, composable

    def __repr__(self):
        return f"TwoGroup({self.name}, |ob|={self.ob.order}, |mor|={self.mor.order})"


@dataclass
class TwoGroupHom:
    """Strict homomorphism of crossed modules: component maps fG, fH."""

    dom: CrossedModule
    cod: CrossedModule
    fG: GroupHom
    fH: GroupHom


@dataclass
class TwoGroupFunctor:
    """An explicit 2-group map at the object/morphism level.

    Used where the interesting identification is between two differently
    presented 2-groups; ``iso_hat_check`` returns one after verifying it is
    a bijective structure-preserving functor.
    """

    dom: TwoGroup
    cod: TwoGroup
    ob_map: GroupHom
    mor_map: GroupHom


@dataclass
class CrossedModuleSES:
    """Short exact sequence 1 -> dom(left) -> middle -> cod(right) -> 1."""

    left: TwoGroupHom
    right: TwoGroupHom


def validate_crossed_module(
    G: FiniteGroup, H: FiniteGroup, t: GroupHom, alpha: GroupAction, name: str = ""
) -> CrossedModule:
    """Check equivariance and the Peiffer identity over all pairs."""
    if not (t.dom is H or t.dom.same_table(H)) or not (t.cod is G or t.cod.same_table(G)):
        raise ValueError("t must map H to G")
    if not (alpha.actor is G or alpha.actor.same_table(G)) or not (
        alpha.target is H or alpha.target.same_table(H)
    ):
        raise ValueError("alpha must be an action of G on H")
    for g in G.elements():
        for h in H.elements():
            if t(alpha.apply(g, h)) != G.conj(g, t(h)):
                raise EquivarianceViolation(g, h)
    for h in H.elements():
        for h2 in H.elements():
            if alpha.apply(t(h), h2) != H.conj(h, h2):
                raise PeifferViolation(h, h2)
    return CrossedModule(G, H, t, alpha, name=name)


def two_group_from_crossed_module(xm: CrossedModule) -> TwoGroup:
    """Objects G, morphisms H x| G; (h, g) is a morphism g -> t(h) g."""
    G, H = xm.G, xm.H
    mor = semidirect_product(G, H, xm.alpha)
    ng = G.order
    src = validate_hom(mor, G, [m % ng for m in mor.elements()])
    tgt = validate_hom(mor, G, [G.mul(xm.t(m // ng), m % ng) for m in mor.elements()])
    unit = validate_hom(G, mor, [g for g in G.elements()])

    def compose(first, then):
        h1, g1 = np.divmod(first, ng)
        return H.table[then // ng, h1] * ng + g1

    return TwoGroup(G, mor, src, tgt, unit, compose, name=xm.name)


def crossed_module_from_two_group(tg: TwoGroup) -> CrossedModule:
    """Recover (G, H, t, alpha): H = ker(src), alpha by conjugation with units."""
    G = tg.ob
    ker = [m for m in tg.mor.elements() if tg.src(m) == 0]
    H, incl = subgroup_as_group(tg.mor, ker, name=f"ker_src({tg.name})")
    pos = {int(incl(i)): i for i in H.elements()}
    t = validate_hom(H, G, [tg.tgt(incl(i)) for i in H.elements()])
    perms = []
    for g in G.elements():
        u = tg.unit(g)
        ui = tg.mor.inv(u)
        perms.append([pos[tg.mor.prod([u, incl(i), ui])] for i in H.elements()])
    alpha = validate_action(G, H, perms)
    return validate_crossed_module(G, H, t, alpha, name=f"xm({tg.name})")


def horizontal_compose(tg: TwoGroup, b1: int, b2: int) -> int:
    """Whiskered side-by-side composite; equals morphism group multiplication."""
    return tg.mor.mul(b1, b2)


def vertical_compose(tg: TwoGroup, b1: int, b2: int) -> int:
    """b2 o b1, defined when tgt(b1) = src(b2)."""
    return tg.compose(b1, b2)


def discrete_two_group(G: FiniteGroup) -> CrossedModule:
    """Trivial H: the 2-group with objects G and identity morphisms only."""
    H = trivial_group()
    t = validate_hom(H, G, [0])
    return validate_crossed_module(G, H, t, trivial_action(G, H), name=f"discrete:{G.name}")


def shift_two_group(H: FiniteGroup) -> CrossedModule:
    """One-object 2-group of an abelian group H (H in degree 1)."""
    require_abelian(H)
    G = trivial_group()
    t = validate_hom(H, G, [0] * H.order)
    return validate_crossed_module(G, H, t, trivial_action(G, H), name=f"shift:{H.name}")


def group_automorphisms(H: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms of H, identity first then lexicographic.

    Exhaustive over generator images; refused above order
    AUT_ENUMERATION_BOUND because the search is factorial in the worst case.
    """
    if H.order > AUT_ENUMERATION_BOUND:
        raise BudgetExceeded(H.order, AUT_ENUMERATION_BOUND)
    gens = generating_set(H.table)
    # express every element as parent * generator, by closure order
    parent: dict[int, tuple[int, int]] = {}
    known = [0]
    seen = {0}
    while len(known) < H.order:
        progressed = False
        for a in list(known):
            for gi, g in enumerate(gens):
                b = H.mul(a, g)
                if b not in seen:
                    parent[b] = (a, gi)
                    seen.add(b)
                    known.append(b)
                    progressed = True
        if not progressed:
            raise ValueError("generating set failed to generate")
    order_of = [H.element_order(x) for x in H.elements()]
    candidates = [[x for x in H.elements() if order_of[x] == order_of[g]] for g in gens]
    autos = []
    table = H.table
    for images in itertools.product(*candidates):
        phi = np.zeros(H.order, dtype=np.int64)
        ok = True
        for b in known[1:]:
            a, gi = parent[b]
            phi[b] = H.mul(int(phi[a]), images[gi])
        if len(set(phi.tolist())) != H.order:
            continue
        if not np.array_equal(phi[table], table[np.ix_(phi, phi)]):
            ok = False
        if ok:
            autos.append(tuple(int(x) for x in phi))
    ident = tuple(range(H.order))
    rest = sorted(a for a in set(autos) if a != ident)
    return [ident] + rest


def aut_two_group(H: FiniteGroup) -> CrossedModule:
    """The automorphism 2-group H -> Aut(H); t maps h to conjugation by h."""
    autos = group_automorphisms(H)
    pos = {a: i for i, a in enumerate(autos)}
    n = len(autos)
    table = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(autos):
        for j, b in enumerate(autos):
            table[i, j] = pos[tuple(a[b[x]] for x in H.elements())]
    aut = validate_group(table, name=f"Aut({H.name})")
    t = validate_hom(
        H, aut, [pos[tuple(H.conj(h, x) for x in H.elements())] for h in H.elements()]
    )
    alpha = validate_action(aut, H, [list(a) for a in autos])
    return validate_crossed_module(aut, H, t, alpha, name=f"aut:{H.name}")


class HomSquareViolation(EquivarianceViolation):
    """A 2-group homomorphism square fails to commute."""

    def __init__(self, square, witness):
        self.square = square
        self.witness = witness
        Exception.__init__(self, f"{square} square fails at {witness}")


def validate_two_group_hom(dom: CrossedModule, cod: CrossedModule, fG: GroupHom, fH: GroupHom) -> TwoGroupHom:
    """Strict homomorphism: squares with t and with the actions commute."""
    for h in dom.H.elements():
        if cod.t(fH(h)) != fG(dom.t(h)):
            raise HomSquareViolation("t", h)
    for g in dom.G.elements():
        for h in dom.H.elements():
            if fH(dom.alpha.apply(g, h)) != cod.alpha.apply(fG(g), fH(h)):
                raise HomSquareViolation("action", (g, h))
    return TwoGroupHom(dom, cod, fG, fH)


def hat_construction(xm: CrossedModule) -> tuple[CrossedModule, CrossedModuleSES]:
    """The enlarged 2-group on G x| H and its exact sequence.

    The new crossed module places H over the group of pairs (g, h) with
    multiplication (g1, h1)(g2, h2) = (g1 g2, h1 alpha(g1)(h2)), via
    t'(h) = (1, h) and alpha'(g, h)(h') = alpha(t(h) g)(h').  It sits in
    an exact sequence with the discrete 2-group of H on the left, where
    h -> (t(h), h^-1) embeds H and (g, h) -> t(h) g projects back.
    """
    G, H, t, alpha = xm.G, xm.H, xm.t, xm.alpha
    ng = G.order
    # pair (g, h) is encoded as h * |G| + g, matching semidirect_product
    ob = semidirect_product(G, H, alpha)
    ob.name = f"{G.name}|x{H.name}"
    enc = lambda g, h: h * ng + g
    t_hat = validate_hom(H, ob, [enc(0, h) for h in H.elements()])
    perms = []
    for x in ob.elements():
        h, g = divmod(x, ng)
        perms.append([alpha.apply(G.mul(t(h), g), h2) for h2 in H.elements()])
    alpha_hat = validate_action(ob, H, perms)
    hat = validate_crossed_module(ob, H, t_hat, alpha_hat, name=f"hat:{xm.name}")

    f = validate_hom(H, ob, [enc(t(h), H.inv(h)) for h in H.elements()])
    f_prime = validate_hom(ob, G, [G.mul(t(x // ng), x % ng) for x in ob.elements()])

    disc_h = discrete_two_group(H)
    left = validate_two_group_hom(disc_h, hat, fG=f, fH=validate_hom(disc_h.H, H, [0]))
    right = validate_two_group_hom(hat, xm, fG=f_prime, fH=identity_hom(H))
    ses = CrossedModuleSES(left, right)
    report = validate_ses(ses)
    if not report["ok"]:
        raise NotExact(f"hat sequence failed exactness: {report['failures']}")
    return hat, ses


def segal_bar_two_group(H: FiniteGroup) -> TwoGroup:
    """2-group with objects H and exactly one morphism between any two objects.

    Morphisms are pairs (a, b): a -> b with componentwise multiplication;
    (b, c) o (a, b) = (a, c).
    """
    mor = direct_product(H, H)
    nh = H.order
    src = validate_hom(mor, H, [m // nh for m in mor.elements()])
    tgt = validate_hom(mor, H, [m % nh for m in mor.elements()])
    unit = validate_hom(H, mor, [h * nh + h for h in H.elements()])

    def compose(first, then):
        return (first // nh) * nh + (then % nh)

    return TwoGroup(H, mor, src, tgt, unit, compose, name=f"bar({H.name})")


def semidirect_two_group(G: FiniteGroup, barH: TwoGroup, alpha: GroupAction) -> TwoGroup:
    """Semidirect 2-group G |x barH with the diagonal action on morphisms.

    Objects are pairs (g, h) encoded h * |G| + g; morphisms are pairs
    (g, (a, b)) encoded (a * |H| + b) * |G| + g, with
    (g, (b, c)) o (g, (a, b)) = (g, (a, c)).
    """
    H = barH.ob
    ng, nh = G.order, H.order
    ob = semidirect_product(G, H, alpha)
    ob.name = f"{G.name}|x{H.name}"
    hh = direct_product(H, H)
    diag = GroupAction(
        G,
        hh,
        [
            [alpha.apply(g, x // nh) * nh + alpha.apply(g, x % nh) for x in hh.elements()]
            for g in G.elements()
        ],
    )
    mor = semidirect_product(G, hh, diag)
    mor.name = f"{G.name}|x({H.name}^2)"
    enc_ob = lambda g, h: h * ng + g

    def decode(m):
        ab, g = divmod(m, ng)
        return g, ab // nh, ab % nh

    src = validate_hom(mor, ob, [enc_ob(g, a) for (g, a, b) in map(decode, mor.elements())])
    tgt = validate_hom(mor, ob, [enc_ob(g, b) for (g, a, b) in map(decode, mor.elements())])
    unit = validate_hom(ob, mor, [(x // ng * nh + x // ng) * ng + x % ng for x in ob.elements()])

    def compose(first, then):
        g, a, _ = decode(first)
        _, _, c = decode(then)
        return (a * nh + c) * ng + g

    return TwoGroup(ob, mor, src, tgt, unit, compose, name=f"{G.name}|xbar({H.name})")


def iso_hat_check(xm: CrossedModule) -> TwoGroupFunctor:
    """Verify the 2-group of the hat construction is G |x bar(H).

    The identification is the identity on objects and sends the morphism
    ((g, h), h') to (g, (h, h' h)).  Raises IsoCheckFailed with the first
    violated equation; on a valid crossed module it must never raise.
    """
    G, H = xm.G, xm.H
    ng, nh = G.order, H.order
    hat, _ = hat_construction(xm)
    dom = two_group_from_crossed_module(hat)
    cod = semidirect_two_group(G, segal_bar_two_group(H), xm.alpha)

    ob_map = np.arange(dom.ob.order, dtype=np.int64)
    hp, x = np.divmod(np.arange(dom.mor.order), dom.ob.order)  # morphism (x, h') with x = (g, h)
    h, g = np.divmod(x, ng)
    mor_values = (h * nh + H.table[hp, h]) * ng + g

    if len(set(mor_values.tolist())) != cod.mor.order or dom.mor.order != cod.mor.order:
        raise IsoCheckFailed("morphism map is not a bijection", None)
    bad = np.argwhere(mor_values[dom.mor.table] != cod.mor.table[np.ix_(mor_values, mor_values)])
    if len(bad):
        raise IsoCheckFailed("morphism multiplication", tuple(map(int, bad[0])))
    for m in dom.mor.elements():
        if ob_map[dom.src(m)] != cod.src(int(mor_values[m])):
            raise IsoCheckFailed("source", m)
        if ob_map[dom.tgt(m)] != cod.tgt(int(mor_values[m])):
            raise IsoCheckFailed("target", m)
    for x in dom.ob.elements():
        if int(mor_values[dom.unit(x)]) != cod.unit(int(ob_map[x])):
            raise IsoCheckFailed("unit", x)
        for y in dom.ob.elements():
            if ob_map[dom.ob.mul(x, y)] != cod.ob.mul(int(ob_map[x]), int(ob_map[y])):
                raise IsoCheckFailed("object multiplication", (x, y))
    m1, m2 = dom.strings(2)[1].T
    bad = np.flatnonzero(mor_values[dom.compose(m1, m2)] != cod.compose(mor_values[m1], mor_values[m2]))
    if bad.size:
        raise IsoCheckFailed("composition", (int(m1[bad[0]]), int(m2[bad[0]])))
    return TwoGroupFunctor(
        dom=dom,
        cod=cod,
        ob_map=validate_hom(dom.ob, cod.ob, ob_map),
        mor_map=validate_hom(dom.mor, cod.mor, mor_values),
    )


def _exactness_failures(left: GroupHom, right: GroupHom, label: str) -> list[str]:
    failures = []
    if not left.is_injective():
        failures.append(f"{label}: left map not injective")
    if not right.is_surjective():
        failures.append(f"{label}: right map not surjective")
    if not (left.cod is right.dom or left.cod.same_table(right.dom)):
        failures.append(f"{label}: maps not composable")
        return failures
    if set(left.image()) != set(right.kernel()):
        failures.append(f"{label}: image != kernel")
    return failures


def validate_ses(ses: CrossedModuleSES) -> dict:
    """Exactness of both rows plus commutativity of the hom squares."""
    failures: list[str] = []
    failures += _exactness_failures(ses.left.fH, ses.right.fH, "H-row")
    failures += _exactness_failures(ses.left.fG, ses.right.fG, "G-row")
    for hom, label in ((ses.left, "left"), (ses.right, "right")):
        try:
            validate_two_group_hom(hom.dom, hom.cod, hom.fG, hom.fH)
        except EquivarianceViolation as e:
            failures.append(f"{label} hom square: {e}")
    return {
        "ok": not failures,
        "failures": failures,
        "orders": {
            "H-row": [ses.left.fH.dom.order, ses.left.fH.cod.order, ses.right.fH.cod.order],
            "G-row": [ses.left.fG.dom.order, ses.left.fG.cod.order, ses.right.fG.cod.order],
        },
    }


def interchange_holds(tg: TwoGroup) -> bool:
    """(b2' o b1') * (b2 o b1) = (b2' * b2) o (b1' * b1), all composable quadruples.

    Each pair of composable 2-strings (b1', b2') and (b1, b2) at once; a
    product pair that is not composable fails the law.  Raises
    BudgetExceeded above MAX_LEVEL_ORDER composable pairs.
    """
    nm = tg.mor.order
    x, arrows = tg.strings(2)
    code, composable = tg.string_products(x, arrows, np.arange(nm), nm)
    if not composable.all():
        return False
    after = tg.compose(arrows[:, 0], arrows[:, 1])
    lhs = tg.mor.table[after[:, None], after[None, :]]
    return bool((lhs == tg.compose(code // nm % nm, code % nm)).all())
