import copy
import itertools

import numpy as np
import pytest

from cech2.crossed_modules import (
    CrossedModule,
    HomSquareViolation,
    aut_two_group,
    crossed_module_from_two_group,
    discrete_two_group,
    group_automorphisms,
    hat_construction,
    horizontal_compose,
    interchange_holds,
    iso_hat_check,
    segal_bar_two_group,
    semidirect_two_group,
    shift_two_group,
    two_group_from_crossed_module,
    validate_crossed_module,
    validate_ses,
    validate_two_group_hom,
    vertical_compose,
)
from cech2.errors import (
    BudgetExceeded,
    EquivarianceViolation,
    IsoCheckFailed,
    NotAbelian,
    NotComposable,
    NotExact,
    NotHomomorphism,
    PeifferViolation,
)
from cech2.fixtures import builtin_group, coefficient_from_spec
from cech2.groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    direct_product,
    identity_hom,
    inversion_action,
    trivial_action,
    semidirect_product,
    subgroup_as_group,
    symmetric_group,
    validate_hom,
)
from test_cohomology import _SLICE_SPECS


class TestValidateCrossedModule:
    def test_discrete_is_valid(self, s3):
        xm = discrete_two_group(s3)
        assert xm.is_discrete()

    def test_shift_of_nonabelian_fails_peiffer(self, s3, z1):
        t = validate_hom(s3, z1, [0] * 6)
        with pytest.raises(PeifferViolation):
            validate_crossed_module(z1, s3, t, trivial_action(z1, s3))

    def test_z2z4_valid(self, z2z4):
        assert z2z4.G.order == 4 and z2z4.H.order == 2

    def test_equivariance_violation(self, s3):
        # identity map S3 -> S3 with the trivial action: conjugation is not trivial
        with pytest.raises(EquivarianceViolation):
            validate_crossed_module(s3, s3, identity_hom(s3), trivial_action(s3, s3))


class TestTwoGroupFromCrossedModule:
    def test_discrete_only_identity_morphisms(self, s3):
        tg = two_group_from_crossed_module(discrete_two_group(s3))
        assert tg.mor.order == tg.ob.order
        assert np.array_equal(tg.src.map, tg.tgt.map)

    def test_z2z4_composition_example(self, z2z4):
        tg = two_group_from_crossed_module(z2z4)
        # (1,2) o (1,0) = (0,0) in (h, g) coordinates
        assert tg.compose(1 * 4 + 0, 1 * 4 + 2) == 0

    def test_shift_z2_is_one_object(self, z2):
        tg = two_group_from_crossed_module(shift_two_group(z2))
        assert tg.ob.order == 1 and tg.mor.order == 2

    def test_structure_maps_respect_units(self, z2z4):
        tg = two_group_from_crossed_module(z2z4)
        for g in tg.ob.elements():
            assert tg.src(tg.unit(g)) == g == tg.tgt(tg.unit(g))


class TestRoundTrip:
    @pytest.mark.parametrize("which", ["z2z4", "discrete", "aut3"])
    def test_round_trip(self, which, z2z4, s3, z3):
        xm = {"z2z4": z2z4, "discrete": discrete_two_group(s3), "aut3": aut_two_group(z3)}[which]
        back = crossed_module_from_two_group(two_group_from_crossed_module(xm))
        assert back.G.same_table(xm.G)
        assert back.H.same_table(xm.H)
        assert np.array_equal(back.t.map, xm.t.map)
        assert np.array_equal(back.alpha.perms, xm.alpha.perms)


class TestCompositions:
    def test_identity_bigons_horizontal(self, z2z4):
        tg = two_group_from_crossed_module(z2z4)
        for g1 in range(4):
            for g2 in range(4):
                assert horizontal_compose(tg, tg.unit(g1), tg.unit(g2)) == tg.unit(tg.ob.mul(g1, g2))

    def test_z2z4_horizontal_example(self, z2z4):
        tg = two_group_from_crossed_module(z2z4)
        # (1,0) * (1,2) = (0,2): trivial action, 1+1=0 upstairs
        assert horizontal_compose(tg, 1 * 4 + 0, 1 * 4 + 2) == 0 * 4 + 2

    def test_aut3_horizontal_matches_formula(self, z3):
        xm = aut_two_group(z3)
        tg = two_group_from_crossed_module(xm)
        ng = xm.G.order
        for b1 in tg.mor.elements():
            for b2 in tg.mor.elements():
                h1, g1 = divmod(b1, ng)
                h2, g2 = divmod(b2, ng)
                want = xm.H.mul(h1, xm.alpha.apply(g1, h2)) * ng + xm.G.mul(g1, g2)
                assert horizontal_compose(tg, b1, b2) == want

    def test_vertical_identity(self, z2z4):
        tg = two_group_from_crossed_module(z2z4)
        for g in range(4):
            assert vertical_compose(tg, tg.unit(g), tg.unit(g)) == tg.unit(g)

    def test_vertical_example(self, z2z4):
        tg = two_group_from_crossed_module(z2z4)
        assert vertical_compose(tg, 1 * 4 + 0, 1 * 4 + 2) == 0

    def test_not_composable(self, z2z4):
        tg = two_group_from_crossed_module(z2z4)
        with pytest.raises(NotComposable):
            vertical_compose(tg, 1 * 4 + 0, 1 * 4 + 0)

    def test_interchange_z2z4_and_hat(self, z2z4):
        assert interchange_holds(two_group_from_crossed_module(z2z4))
        hat, _ = hat_construction(z2z4)
        assert interchange_holds(two_group_from_crossed_module(hat))

    def test_interchange_same_as_reference(self, library_xmods):
        for xm in library_xmods:
            tg = two_group_from_crossed_module(xm)
            assert interchange_holds(tg) is _reference_interchange_holds(tg) is True, xm.name

    def test_interchange_fails_on_a_corrupted_product(self, z3):
        # aut:Z3 has t = 1, so (h, g) -> (h', g) keeps both ends and every
        # product stays composable: the reference loop runs through as well
        tg = copy.copy(two_group_from_crossed_module(aut_two_group(z3)))
        table = tg.mor.table.copy()
        assert table[2, 2] == 4  # (1, 0) (1, 0) = (2, 0)
        table[2, 2] = 0
        tg.mor = FiniteGroup(table, name=tg.mor.name)
        assert interchange_holds(tg) is _reference_interchange_holds(tg) is False

    def test_interchange_fails_off_the_generator_columns(self, s3):
        # aut:S3 with one product changed that no right factor of the path
        # on generators reads: mor then fails Light's test, so every pair is
        # compared, and a product pair is no longer composable
        tg = copy.copy(two_group_from_crossed_module(aut_two_group(s3)))
        pairs = tg.strings(2)[1]
        right = pairs[np.isin(pairs[:, 0], [0, *tg.mor.generators])]
        read = set(right.ravel().tolist()) | set(tg.compose(right[:, 0], right[:, 1]).tolist())
        b = next(m for m in tg.mor.elements() if m not in read)
        table = tg.mor.table.copy()
        table[b, b] = table[b, 0]
        tg.mor = FiniteGroup(table, name=tg.mor.name)
        assert interchange_holds(tg) is False

    def test_interchange_fails_on_a_product_that_is_not_composable(self, z2z4):
        tg = copy.copy(two_group_from_crossed_module(z2z4))
        table = tg.mor.table.copy()
        assert table[1, 1] == 2  # (0, 1) (0, 1) = (0, 2)
        table[1, 1] = 6  # (1, 2): the target moves from 2 to 0
        tg.mor = FiniteGroup(table, name=tg.mor.name)
        assert interchange_holds(tg) is False

    def test_interchange_fails_where_peiffer_fails(self, z1, s3, monkeypatch):
        # the one-object 2-group of S3, built without the Peiffer check: mor
        # and its structure maps are intact, so the check takes its path on
        # generators, but n o m = n m is no hom on pairs as S3 is not abelian
        import cech2.crossed_modules as cm

        xm = CrossedModule(z1, s3, validate_hom(s3, z1, [0] * 6), trivial_action(z1, s3))
        tg = two_group_from_crossed_module(xm)
        monkeypatch.setattr(cm, "first_failure", lambda *args: pytest.fail("left the path on generators"))
        assert interchange_holds(tg) is _reference_interchange_holds(tg) is False

    def test_compose_arrays(self, z2z4):
        tg = two_group_from_crossed_module(z2z4)
        first, then = tg.strings(2)[1].T
        assert tg.compose(first, then).tolist() == [tg.compose(int(a), int(b)) for a, b in zip(first, then)]
        with pytest.raises(NotComposable):
            tg.compose(first, np.roll(then, 1))


class TestDerivedComposition:
    def test_equals_the_former_closed_forms(self):
        # every composable pair of 21 2-groups: the 2-groups of 13 library
        # coefficients, 5 pair 2-groups bar(H) and 3 semidirect ones, the
        # last that of iso_hat_check(aut:S3)
        pairs = 0
        for tg, closed_form in _composition_cases():
            first, then = tg.strings(2)[1].T
            assert np.array_equal(tg.compose(first, then), closed_form(first, then)), tg.name
            pairs += len(first)
        assert pairs == 3367


def _composition_cases():
    """2-groups with the composition rule each constructor once wrote out."""
    cases = []
    for spec in _COMPOSITION_SPECS:
        xm = coefficient_from_spec(spec)
        cases.append((two_group_from_crossed_module(xm), lambda m, n, xm=xm: _crossed_module_compose(xm, m, n)))
    for name in ("Z1", "Z2", "Z3", "S3", "K4"):
        nh = builtin_group(name).order
        cases.append((segal_bar_two_group(builtin_group(name)), lambda m, n, nh=nh: _bar_compose(nh, m, n)))
    z2, z3, z4 = (builtin_group(n) for n in ("Z2", "Z3", "Z4"))
    for alpha in (inversion_action(z2, z3), trivial_action(z4, z2), aut_two_group(builtin_group("S3")).alpha):
        G, H = alpha.actor, alpha.target
        tg = semidirect_two_group(G, segal_bar_two_group(H), alpha)
        cases.append((tg, lambda m, n, ng=G.order, nh=H.order: _semidirect_compose(ng, nh, m, n)))
    return cases


_COMPOSITION_SPECS = [
    "discrete:Z2", "discrete:Z4", "discrete:S3", "shift:Z2", "shift:Z3", "aut:Z2", "aut:Z3",
    "aut:S3", "z2z4", "hat:z2z4", "hat:aut:Z3", "hat:shift:Z2", "hat:aut:S3",
]


def _crossed_module_compose(xm, first, then):
    """(h', t(h) g) o (h, g) = (h' h, g), on arrows (h, g) encoded h |G| + g."""
    ng = xm.G.order
    h, g = np.divmod(first, ng)
    return xm.H.table[then // ng, h] * ng + g


def _bar_compose(nh, first, then):
    """(b, c) o (a, b) = (a, c), on pairs encoded a |H| + b."""
    return (first // nh) * nh + then % nh


def _semidirect_compose(ng, nh, first, then):
    """(g, (b, c)) o (g, (a, b)) = (g, (a, c)), on (g, (a, b)) encoded
    (a |H| + b) |G| + g."""
    ab, g = np.divmod(first, ng)
    return (ab // nh * nh + then // ng % nh) * ng + g


def _reference_interchange_holds(tg) -> bool:
    """The quadruple loop ``interchange_holds`` replaced, kept as the reference."""
    by_src: dict[int, list[int]] = {}
    for m in tg.mor.elements():
        by_src.setdefault(tg.src(m), []).append(m)
    pairs = [(m1, m2) for m1 in tg.mor.elements() for m2 in by_src.get(tg.tgt(m1), [])]
    for b1, b2 in pairs:
        for b1p, b2p in pairs:
            lhs = tg.mor.mul(tg.compose(b1p, b2p), tg.compose(b1, b2))
            rhs = tg.compose(tg.mor.mul(b1p, b1), tg.mor.mul(b2p, b2))
            if lhs != rhs:
                return False
    return True


class TestNamedConstructions:
    def test_discrete(self, z2, s3, z1):
        assert discrete_two_group(z2).H.order == 1
        assert discrete_two_group(s3).G.order == 6
        assert discrete_two_group(z1).G.order == 1

    def test_shift(self, z2, z3, s3):
        assert shift_two_group(z2).H.order == 2
        assert shift_two_group(z3).H.order == 3
        with pytest.raises(NotAbelian):
            shift_two_group(s3)

    def test_shift_error_is_a_peiffer_violation(self, s3):
        with pytest.raises(PeifferViolation):
            shift_two_group(s3)

    def test_aut_z3(self, z3):
        xm = aut_two_group(z3)
        assert xm.G.order == 2
        assert all(xm.t(h) == 0 for h in z3.elements())

    def test_aut_z2_trivial(self, z2):
        assert aut_two_group(z2).G.order == 1

    def test_aut_s3(self, s3):
        xm = aut_two_group(s3)
        assert xm.G.order == 6
        assert xm.t.is_injective() and xm.t.is_surjective()

    def test_aut_budget(self):
        from cech2.groups import cyclic_group

        with pytest.raises(BudgetExceeded):
            group_automorphisms(cyclic_group(13))
        with pytest.raises(BudgetExceeded) as exc:
            aut_two_group(cyclic_group(13))
        assert (exc.value.required, exc.value.budget) == (13, 12)
        assert aut_two_group(cyclic_group(12)).G.order == 4  # (Z/12)^x


class TestHatConstruction:
    def test_discrete_degenerates(self, s3):
        hat, ses = hat_construction(discrete_two_group(s3))
        assert hat.G.order == 6 and hat.H.order == 1
        assert validate_ses(ses)["ok"]

    def test_z2z4(self, z2z4):
        hat, ses = hat_construction(z2z4)
        assert hat.G.order == 8
        assert validate_ses(ses)["ok"]

    def test_shift_z2(self, z2):
        hat, ses = hat_construction(shift_two_group(z2))
        assert hat.G.order == 2
        assert hat.t.is_injective() and hat.t.is_surjective()
        assert validate_ses(ses)["ok"]

    def test_inexact_sequence_raises(self, z2z4, monkeypatch):
        # the check must stay when assertions are stripped (python -O)
        import cech2.crossed_modules as cm

        monkeypatch.setattr(cm, "validate_ses", lambda ses: {"ok": False, "failures": ["H-row: image != kernel"]})
        with pytest.raises(NotExact, match="image != kernel"):
            hat_construction(z2z4)


class TestSegalBar:
    def test_trivial_group(self, z1):
        tg = segal_bar_two_group(z1)
        assert tg.ob.order == 1 and tg.mor.order == 1

    def test_z2_hom_sets_are_singletons(self, z2):
        tg = segal_bar_two_group(z2)
        assert tg.ob.order == 2 and tg.mor.order == 4
        seen = {(tg.src(m), tg.tgt(m)) for m in tg.mor.elements()}
        assert len(seen) == 4

    def test_z3_composition(self, z3):
        tg = segal_bar_two_group(z3)
        # (1,2) o (0,1) = (0,2) with (a,b) encoded a*|H|+b
        assert tg.compose(0 * 3 + 1, 1 * 3 + 2) == 0 * 3 + 2


class TestSemidirectTwoGroup:
    def test_trivial_actor_is_bar(self, z1, z3):
        bar = segal_bar_two_group(z3)
        tg = semidirect_two_group(z1, bar, trivial_action(z1, z3))
        assert tg.ob.order == 3 and tg.mor.order == 9

    def test_orders_z4_z2(self, z4, z2):
        tg = semidirect_two_group(z4, segal_bar_two_group(z2), trivial_action(z4, z2))
        assert tg.ob.order == 8 and tg.mor.order == 16

    def test_structure_maps_are_homs(self, z2, z3):
        # construction validates src/tgt/unit as homomorphisms; just build it
        semidirect_two_group(z2, segal_bar_two_group(z3), inversion_action(z2, z3))


class TestIsoHatCheck:
    @pytest.mark.parametrize("which", ["z2z4", "aut3", "shift2", "discrete"])
    def test_iso(self, which, z2z4, z3, z2, s3):
        xm = {
            "z2z4": z2z4,
            "aut3": aut_two_group(z3),
            "shift2": shift_two_group(z2),
            "discrete": discrete_two_group(s3),
        }[which]
        iso = iso_hat_check(xm)
        assert iso.ob_map.is_injective() and iso.ob_map.is_surjective()
        assert iso.mor_map.is_injective() and iso.mor_map.is_surjective()

    @pytest.mark.parametrize(
        "group, cell", [("mor", (1, 2)), ("mor", (7, 11)), ("mor", (17, 17)), ("ob", (1, 2)), ("ob", (5, 5))]
    )
    def test_changed_product_names_its_first_bad_pair(self, z3, monkeypatch, group, cell):
        # G |x bar(H) with one product of its objects or morphisms changed:
        # the check names the law once, at its row-major first bad pair
        import cech2.crossed_modules as cm

        xm = aut_two_group(z3)
        iso = iso_hat_check(xm)
        built = cm.semidirect_two_group

        def changed(*args):
            tg = built(*args)
            table = getattr(tg, group).table.copy()
            table[cell] = (table[cell] + 1) % len(table)
            setattr(tg, group, FiniteGroup(table, name=getattr(tg, group).name))
            return tg

        f = (iso.mor_map if group == "mor" else iso.ob_map).map
        dom, cod = getattr(iso.dom, group), getattr(changed(xm.G, segal_bar_two_group(xm.H), xm.alpha), group)
        want = tuple(int(v) for v in np.argwhere(f[dom.table] != cod.table[np.ix_(f, f)])[0])
        monkeypatch.setattr(cm, "semidirect_two_group", changed)
        with pytest.raises(IsoCheckFailed) as exc:
            iso_hat_check(xm)
        equation = "morphism multiplication" if group == "mor" else "object multiplication"
        assert (exc.value.equation, exc.value.witness) == (equation, want)


class TestValidateSes:
    def test_hat_sequence_exact(self, z2z4):
        _, ses = hat_construction(z2z4)
        report = validate_ses(ses)
        assert report["ok"] and report["failures"] == []

    def test_identity_kernel_sequence_exact(self, z2, z4, z2z4):
        # 1 -> (Z2 -> Z2) -> (Z2 -> Z4) -> (1 -> Z2) -> 1: the left term is
        # the identity crossed module on Z2, mapped in by h -> h upstairs and
        # g -> 2g downstairs
        from cech2.crossed_modules import CrossedModuleSES
        from cech2.groups import identity_hom

        left_xm = validate_crossed_module(z2, z2, identity_hom(z2), trivial_action(z2, z2))
        left = validate_two_group_hom(
            left_xm, z2z4, fG=validate_hom(z2, z4, [0, 2]), fH=identity_hom(z2)
        )
        d_z2 = discrete_two_group(z2)
        right = validate_two_group_hom(
            z2z4, d_z2, fG=validate_hom(z4, z2, [0, 1, 0, 1]), fH=validate_hom(z2, d_z2.H, [0, 0])
        )
        report = validate_ses(CrossedModuleSES(left, right))
        assert report["ok"], report["failures"]

    def test_non_surjective_right_map_reported(self, z2, z4, z1):
        from cech2.crossed_modules import CrossedModuleSES

        d_z2 = discrete_two_group(z2)
        d_z4 = discrete_two_group(z4)
        left = validate_two_group_hom(
            d_z2, d_z4, fG=validate_hom(z2, z4, [0, 2]), fH=validate_hom(d_z2.H, d_z4.H, [0])
        )
        right = validate_two_group_hom(
            d_z4, d_z4, fG=validate_hom(z4, z4, [0, 2, 0, 2]), fH=validate_hom(d_z4.H, d_z4.H, [0])
        )
        report = validate_ses(CrossedModuleSES(left, right))
        assert not report["ok"]
        assert any("not surjective" in f for f in report["failures"])

    def test_bad_hom_square_rejected(self, z2, z4, z2z4):
        # fH = id, fG = 0 breaks the t-square for z2z4 -> z2z4
        with pytest.raises(EquivarianceViolation):
            validate_two_group_hom(
                z2z4, z2z4, fG=validate_hom(z4, z4, [0] * 4), fH=identity_hom(z2)
            )


# The scalar comprehensions and loops that the array forms replaced, kept
# as references: each must give the same maps, tables and first witness.

def _outcome(f, *args):
    try:
        f(*args)
    except Exception as e:  # the exception type and its witness
        return type(e).__name__, str(e)
    return "ok", None


def _reference_validate_crossed_module(G, H, t, alpha):
    for g in G.elements():
        for h in H.elements():
            if t(alpha.apply(g, h)) != G.conj(g, t(h)):
                raise EquivarianceViolation(g, h)
    for h in H.elements():
        for h2 in H.elements():
            if alpha.apply(t(h), h2) != H.conj(h, h2):
                raise PeifferViolation(h, h2)


def _reference_validate_two_group_hom(dom, cod, fG, fH):
    for h in dom.H.elements():
        if cod.t(fH(h)) != fG(dom.t(h)):
            raise HomSquareViolation("t", h)
    for g in dom.G.elements():
        for h in dom.H.elements():
            if fH(dom.alpha.apply(g, h)) != cod.alpha.apply(fG(g), fH(h)):
                raise HomSquareViolation("action", (g, h))


def _reference_structure_maps(tg, xm):
    """src, tgt and unit of the 2-group of xm, by comprehension."""
    G, ng = xm.G, xm.G.order
    return (
        [m % ng for m in tg.mor.elements()],
        [G.mul(xm.t(m // ng), m % ng) for m in tg.mor.elements()],
        list(G.elements()),
    )


def _reference_bar_maps(tg, G, H):
    """src, tgt and unit of G |x bar(H) and of bar(H), by comprehension."""
    ng, nh = G.order, H.order
    decoded = [(m % ng, m // ng // nh, m // ng % nh) for m in tg.mor.elements()]
    semidirect = (
        [a * ng + g for g, a, b in decoded],
        [b * ng + g for g, a, b in decoded],
        [(x // ng * nh + x // ng) * ng + x % ng for x in tg.ob.elements()],
    )
    bar = ([m // nh for m in range(nh * nh)], [m % nh for m in range(nh * nh)], [h * nh + h for h in H.elements()])
    return semidirect, bar


def _bar_cases():
    z1, z2, z3, z4 = (builtin_group(n) for n in ("Z1", "Z2", "Z3", "Z4"))
    cases = [(z1, z3, trivial_action(z1, z3)), (z2, z3, inversion_action(z2, z3)), (z2, z4, inversion_action(z2, z4))]
    return cases + [(z2, builtin_group(n), trivial_action(z2, builtin_group(n))) for n in ("S3", "K4")]


class TestArrayFormsAgainstLoops:
    @pytest.mark.parametrize("spec", _SLICE_SPECS)
    def test_structure_maps(self, spec):
        xm = coefficient_from_spec(spec)
        tg = two_group_from_crossed_module(xm)
        got = [f.map.tolist() for f in (tg.src, tg.tgt, tg.unit)]
        assert got == list(_reference_structure_maps(tg, xm))
        back = crossed_module_from_two_group(tg)
        assert back.G.same_table(xm.G) and np.array_equal(back.t.map, xm.t.map)
        assert np.array_equal(back.alpha.perms, xm.alpha.perms)

    @pytest.mark.parametrize("case", range(5))
    def test_bar_maps(self, case):
        G, H, alpha = _bar_cases()[case]
        bar = segal_bar_two_group(H)
        tg = semidirect_two_group(G, bar, alpha)
        nh = H.order
        diag = [[alpha.apply(g, x // nh) * nh + alpha.apply(g, x % nh) for x in range(nh * nh)] for g in G.elements()]
        want_semidirect, want_bar = _reference_bar_maps(tg, G, H)
        assert [f.map.tolist() for f in (tg.src, tg.tgt, tg.unit)] == list(want_semidirect)
        assert [f.map.tolist() for f in (bar.src, bar.tgt, bar.unit)] == list(want_bar)
        assert np.array_equal(tg.mor.table, semidirect_product(G, direct_product(H, H), GroupAction(G, bar.mor, diag)).table)

    @pytest.mark.parametrize("spec", [s for s in _SLICE_SPECS if not s.startswith("hat:")])
    def test_hat_and_aut(self, spec):
        xm = coefficient_from_spec(spec)
        G, H, t, alpha = xm.G, xm.H, xm.t, xm.alpha
        ng = G.order
        hat, ses = hat_construction(xm)
        perms = [[alpha.apply(G.mul(t(x // ng), x % ng), h2) for h2 in H.elements()] for x in hat.G.elements()]
        assert hat.alpha.perms.tolist() == perms
        assert hat.t.map.tolist() == [h * ng for h in H.elements()]
        assert ses.left.fG.map.tolist() == [H.inv(h) * ng + t(h) for h in H.elements()]
        assert ses.right.fG.map.tolist() == [G.mul(t(x // ng), x % ng) for x in hat.G.elements()]
        if spec.startswith("aut:"):
            autos = group_automorphisms(H)
            pos = {a: i for i, a in enumerate(autos)}
            table = [[pos[tuple(a[b[x]] for x in H.elements())] for b in autos] for a in autos]
            assert xm.G.table.tolist() == table
            assert xm.t.map.tolist() == [pos[tuple(H.conj(h, x) for x in H.elements())] for h in H.elements()]

    def test_symmetric_group_and_subgroups(self):
        s4 = symmetric_group(4)
        perms = sorted(itertools.permutations(range(4)))
        pos = {p: i for i, p in enumerate(perms)}
        assert s4.table.tolist() == [[pos[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms]
        for elements in ([0, 1], [0, 3, 4], [0, 7, 16], list(range(24))):
            closed = all(s4.mul(x, y) in elements for x in elements for y in elements)
            want = next(((x, y) for x in sorted(elements) for y in sorted(elements) if s4.mul(x, y) not in elements), None)
            if closed:
                sub, incl = subgroup_as_group(s4, elements)
                assert incl.map.tolist() == sorted(elements)
                assert all(incl(sub.mul(i, j)) == s4.mul(incl(i), incl(j)) for i in sub.elements() for j in sub.elements())
            else:
                with pytest.raises(NotHomomorphism) as exc:
                    subgroup_as_group(s4, elements)
                assert exc.value.pair == want

    def test_broken_crossed_modules(self, library_xmods):
        # every library coefficient with its action or t replaced by that of
        # another coefficient on the same groups, or by the trivial one
        failures = []
        for xm in library_xmods:
            G, H = xm.G, xm.H
            actions = [xm.alpha, trivial_action(G, H)]
            ts = [xm.t, validate_hom(H, G, [0] * H.order)]
            for other in library_xmods:
                if other.G.same_table(G) and other.H.same_table(H):
                    actions.append(other.alpha)
                    ts.append(other.t)
            for t in ts:
                for alpha in actions:
                    got = _outcome(validate_crossed_module, G, H, t, alpha)
                    assert got == _outcome(_reference_validate_crossed_module, G, H, t, alpha)
                    failures.append(got[0])
        s3 = symmetric_group(3)
        got = _outcome(validate_crossed_module, s3, s3, identity_hom(s3), trivial_action(s3, s3))
        assert got == _outcome(_reference_validate_crossed_module, s3, s3, identity_hom(s3), trivial_action(s3, s3))
        assert {"ok", "EquivarianceViolation", "PeifferViolation"} <= set(failures)

    def test_broken_two_group_homs(self, library_xmods):
        # endomorphisms of each coefficient by maps of G and of H that are
        # homs or constant, so that some squares fail
        rng, outcomes = np.random.default_rng(5), set()
        for xm in library_xmods:
            for _ in range(20):
                fG = GroupHom(xm.G, xm.G, np.arange(xm.G.order) * (rng.random() < 0.7))
                fH = GroupHom(xm.H, xm.H, rng.integers(0, xm.H.order, xm.H.order))
                got = _outcome(validate_two_group_hom, xm, xm, fG, fH)
                assert got == _outcome(_reference_validate_two_group_hom, xm, xm, fG, fH)
                outcomes.add(got[0])
        assert outcomes == {"ok", "HomSquareViolation"}
