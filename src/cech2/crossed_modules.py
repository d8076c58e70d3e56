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

import numpy as np

from .errors import (
    BudgetExceeded,
    CechError,
    EquivarianceViolation,
    IsoCheckFailed,
    NotComposable,
    NotExact,
    NotHomomorphism,
    PeifferViolation,
)
from .groups import (
    MAX_LEVEL_ORDER,
    FiniteGroup,
    GroupAction,
    GroupHom,
    direct_product,
    first_failure,
    identity_hom,
    minimal_section,
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

    ``compose`` is the groupoid composition, on ints or int arrays, derived
    from the groups: n o m = n unit(src n)^-1 m.  It is the only one that
    obeys the unit and interchange laws, as (n, m) = (n, u) (u^-1, u^-1)
    (u, m) for u = unit(src n) is a product of composable pairs.
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
        name: str = "",
    ):
        self.ob = ob
        self.mor = mor
        self.src = src
        self.tgt = tgt
        self.unit = unit
        self.name = name or "2-group"

    def compose(self, first, then):
        """then o first, on ints or elementwise on int arrays of one shape;
        NotComposable at the first place where tgt(first) != src(then)."""
        ends, starts = self.tgt.map[first], self.src.map[then]
        bad = np.flatnonzero(ends != starts)
        if bad.size:
            raise NotComposable(int(ends.flat[bad[0]]), int(starts.flat[bad[0]]))
        out = self.mor.table[self.mor.table[then, self.mor.inverse[self.unit.map[starts]]], first]
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

    def string_products(self, x: np.ndarray, arrows: np.ndarray, digits: np.ndarray, radix: int, right):
        """Products of the strings (x, arrows) by the strings right = (y,
        brows), row times column: the product of (x, m_1 .. m_p) and
        (y, n_1 .. n_p) is (x y, m_i n_i).

        Returns the (len x, len y) products encoded from the start object
        x y one arrow at a time, code * radix + digits[m_i n_i], and the mask
        of composable products.  BudgetExceeded above MAX_LEVEL_ORDER
        products, before any.  The codes come in the narrowest unsigned type
        that holds |ob| radix^p - 1 and radix, the tables and maps in the
        narrowest type of their values.  Each arrow slot reads m_i n_i from
        the (len x, |mor|) rows of the product table at m_i, or directly
        where len y < |mor|.
        """
        y, brows = right
        if len(x) * len(y) > MAX_LEVEL_ORDER:
            raise BudgetExceeded(len(x) * len(y), MAX_LEVEL_ORDER)
        ob_type, mor_type = np.min_scalar_type(self.ob.order - 1), np.min_scalar_type(self.mor.order - 1)
        code_type = np.min_scalar_type(max(self.ob.order * radix ** arrows.shape[1] - 1, radix))
        mor, digits = self.mor.table.astype(mor_type), digits.astype(code_type)
        src, tgt = self.src.map.astype(ob_type), self.tgt.map.astype(ob_type)
        end = self.ob.table.astype(ob_type)[x].take(y, axis=1)
        code = end.astype(code_type)
        composable = np.ones(code.shape, dtype=bool)
        for m, n in zip(arrows.T, brows.T):
            block, n = (mor[m], n) if len(y) >= len(mor) else (mor[m[:, None], n], slice(None))
            composable &= src[block][:, n] == end
            end = tgt[block][:, n]
            code *= radix
            code += digits[block][:, n]
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
    # [g, h]: t(alpha(g)(h)) against g t(h) g^-1; [h, h']: alpha(t(h))(h') against h h' h^-1
    for bad in np.argwhere(t.map[alpha.perms] != G.table[G.table[:, t.map], G.inverse[:, None]])[:1]:
        raise EquivarianceViolation(*map(int, bad))
    for bad in np.argwhere(alpha.perms[t.map] != H.table[H.table, H.inverse[:, None]])[:1]:
        raise PeifferViolation(*map(int, bad))
    return CrossedModule(G, H, t, alpha, name=name)


def two_group_from_crossed_module(xm: CrossedModule) -> TwoGroup:
    """Objects G, morphisms H x| G; (h, g) is a morphism g -> t(h) g."""
    G, H = xm.G, xm.H
    mor = semidirect_product(G, H, xm.alpha)
    ng = G.order
    h, g = np.divmod(np.arange(mor.order), ng)
    src = validate_hom(mor, G, g)
    tgt = validate_hom(mor, G, G.table[xm.t.map[h], g])
    unit = validate_hom(G, mor, np.arange(ng))
    return TwoGroup(G, mor, src, tgt, unit, name=xm.name)


def crossed_module_from_two_group(tg: TwoGroup) -> CrossedModule:
    """Recover (G, H, t, alpha): H = ker(src), alpha by conjugation with units."""
    G, mor = tg.ob, tg.mor
    H, incl = subgroup_as_group(mor, np.flatnonzero(tg.src.map == 0), name=f"ker_src({tg.name})")
    pos = minimal_section(incl)
    t = validate_hom(H, G, tg.tgt.map[incl.map])
    u = tg.unit.map[:, None]
    alpha = validate_action(G, H, pos[mor.table[mor.table[u, incl.map], mor.inverse[u]]])  # u k u^-1
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
    gens = H.generators
    # express every element as parent * generator, by closure order
    parent: dict[int, tuple[int, int]] = {0: (0, 0)}
    known = [0]
    while len(known) < H.order:
        grown = len(known)
        for a in list(known):
            for gi, g in enumerate(gens):
                b = H.mul(a, g)
                if b not in parent:
                    parent[b] = (a, gi)
                    known.append(b)
        if len(known) == grown:
            raise ValueError("generating set failed to generate")
    order_of = [H.element_order(x) for x in H.elements()]
    candidates = [[x for x in H.elements() if order_of[x] == order_of[g]] for g in gens]
    autos = []
    table = H.table
    for images in itertools.product(*candidates):
        phi = np.zeros(H.order, dtype=np.int64)
        for b in known[1:]:
            a, gi = parent[b]
            phi[b] = H.mul(int(phi[a]), images[gi])
        if len(set(phi.tolist())) == H.order and np.array_equal(phi[table], table[np.ix_(phi, phi)]):
            autos.append(tuple(int(x) for x in phi))
    ident = tuple(range(H.order))
    rest = sorted(a for a in set(autos) if a != ident)
    return [ident] + rest


def aut_two_group(H: FiniteGroup) -> CrossedModule:
    """The automorphism 2-group H -> Aut(H); t maps h to conjugation by h."""
    autos = group_automorphisms(H)
    pos = {a: i for i, a in enumerate(autos)}
    perms = np.array(autos, dtype=np.int64)
    aut = validate_group([[pos[tuple(a[b].tolist())] for b in perms] for a in perms], name=f"Aut({H.name})")
    conj = H.table[H.table, H.inverse[:, None]]  # [h, x] = h x h^-1
    t = validate_hom(H, aut, [pos[tuple(row)] for row in conj.tolist()])
    alpha = validate_action(aut, H, perms)
    return validate_crossed_module(aut, H, t, alpha, name=f"aut:{H.name}")


class HomSquareViolation(EquivarianceViolation):
    """A 2-group homomorphism square fails to commute."""

    def __init__(self, square, witness):
        self.square = square
        self.witness = witness
        Exception.__init__(self, f"{square} square fails at {witness}")


def validate_two_group_hom(dom: CrossedModule, cod: CrossedModule, fG: GroupHom, fH: GroupHom) -> TwoGroupHom:
    """Strict homomorphism: squares with t and with the actions commute."""
    for h in np.flatnonzero(cod.t.map[fH.map] != fG.map[dom.t.map])[:1]:
        raise HomSquareViolation("t", int(h))
    for g, h in np.argwhere(fH.map[dom.alpha.perms] != cod.alpha.perms[fG.map[:, None], fH.map])[:1]:
        raise HomSquareViolation("action", (int(g), int(h)))
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
    t_hat = validate_hom(H, ob, np.arange(H.order) * ng)
    h, g = np.divmod(np.arange(ob.order), ng)
    moved = G.table[t.map[h], g]  # t(h) g of the pair (g, h)
    alpha_hat = validate_action(ob, H, alpha.perms[moved])
    hat = validate_crossed_module(ob, H, t_hat, alpha_hat, name=f"hat:{xm.name}")

    f = validate_hom(H, ob, H.inverse * ng + t.map)
    f_prime = validate_hom(ob, G, moved)

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
    a, b = np.divmod(np.arange(mor.order), nh)
    src = validate_hom(mor, H, a)
    tgt = validate_hom(mor, H, b)
    unit = validate_hom(H, mor, np.arange(nh) * (nh + 1))
    return TwoGroup(H, mor, src, tgt, unit, name=f"bar({H.name})")


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
    a, b = np.divmod(np.arange(hh.order), nh)
    diag = GroupAction(G, hh, alpha.perms[:, a] * nh + alpha.perms[:, b])
    mor = semidirect_product(G, hh, diag)
    mor.name = f"{G.name}|x({H.name}^2)"
    ab, g = np.divmod(np.arange(mor.order), ng)
    a, b = np.divmod(ab, nh)
    src = validate_hom(mor, ob, a * ng + g)
    tgt = validate_hom(mor, ob, b * ng + g)
    h, g = np.divmod(np.arange(ob.order), ng)
    unit = validate_hom(ob, mor, (h * nh + h) * ng + g)
    return TwoGroup(ob, mor, src, tgt, unit, name=f"{G.name}|xbar({H.name})")


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
    try:
        mor_hom = validate_hom(dom.mor, cod.mor, mor_values)
    except NotHomomorphism as e:
        raise IsoCheckFailed("morphism multiplication", e.pair) from None
    src_bad = ob_map[dom.src.map] != cod.src.map[mor_values]
    for m in np.flatnonzero(src_bad | (ob_map[dom.tgt.map] != cod.tgt.map[mor_values]))[:1]:
        raise IsoCheckFailed("source" if src_bad[m] else "target", int(m))
    unit_bad = mor_values[dom.unit.map] != cod.unit.map[ob_map]
    mul_bad = ob_map[dom.ob.table] != cod.ob.table[np.ix_(ob_map, ob_map)]
    for x in np.flatnonzero(unit_bad | mul_bad.any(axis=1))[:1]:
        witness = ("unit", int(x)) if unit_bad[x] else ("object multiplication", (int(x), int(np.argmax(mul_bad[x]))))
        raise IsoCheckFailed(*witness)
    m1, m2 = dom.strings(2)[1].T
    bad = np.flatnonzero(mor_values[dom.compose(m1, m2)] != cod.compose(mor_values[m1], mor_values[m2]))
    if bad.size:
        raise IsoCheckFailed("composition", (int(m1[bad[0]]), int(m2[bad[0]])))
    return TwoGroupFunctor(dom=dom, cod=cod, ob_map=GroupHom(dom.ob, cod.ob, ob_map), mor_map=mor_hom)


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

    That is, the composable 2-strings are closed under products and compose
    is a hom on them; as compose is derived from mor, this is the Peiffer
    condition [ker src, ker tgt] = 1.  Once mor passes Light's test and src,
    tgt and unit are homs with src unit = 1, the 2-strings are a subgroup of
    mor^2.  It is generated by the strings whose first arrow is 1 or a
    generator of mor, as (m, n) = (m, u) (1, u^-1 n) for u = unit(tgt m),
    so only those are right factors: if r and r' pass against every left
    factor s, so does r r', as s r is then a string and compose(s r r') =
    compose(s r) compose(r') = compose(s) compose(r) compose(r') =
    compose(s) compose(r r').  Otherwise all strings are, by
    ``first_failure``.  A product that is not composable fails.
    """
    nm = tg.mor.order
    x, arrows = tg.strings(2)
    try:
        validate_group(tg.mor.table)
        for f, dom, cod in ((tg.src, tg.mor, tg.ob), (tg.tgt, tg.mor, tg.ob), (tg.unit, tg.ob, tg.mor)):
            validate_hom(dom, cod, f.map)
        right = np.isin(arrows[:, 0], [0, *tg.mor.generators])
        by_generators = np.array_equal(tg.src.map[tg.unit.map], np.arange(tg.ob.order))
    except CechError:
        by_generators = False

    def holds(rows, cols):
        code, composable = tg.string_products(x[rows], arrows[rows], np.arange(nm), nm, (x[cols], arrows[cols]))
        if not composable.all():
            return composable
        after = tg.compose(arrows[:, 0], arrows[:, 1])
        return tg.mor.table[after[rows]].take(after[cols], axis=1) == tg.compose(code // nm % nm, code % nm)

    if by_generators:
        return bool(holds(slice(None), right).all())
    return first_failure(len(x), len(x), lambda rows: holds(rows, slice(None))) is None
