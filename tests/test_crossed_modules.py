import copy

import numpy as np
import pytest

from cech2.crossed_modules import (
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
    NotAbelian,
    NotComposable,
    NotExact,
    PeifferViolation,
)
from cech2.groups import (
    FiniteGroup,
    identity_hom,
    inversion_action,
    trivial_action,
    trivial_group,
    validate_hom,
)


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

    def test_interchange_fails_on_a_product_that_is_not_composable(self, z2z4):
        tg = copy.copy(two_group_from_crossed_module(z2z4))
        table = tg.mor.table.copy()
        assert table[1, 1] == 2  # (0, 1) (0, 1) = (0, 2)
        table[1, 1] = 6  # (1, 2): the target moves from 2 to 0
        tg.mor = FiniteGroup(table, name=tg.mor.name)
        assert interchange_holds(tg) is False

    def test_compose_arrays(self, z2z4):
        tg = two_group_from_crossed_module(z2z4)
        first, then = tg.strings(2)[1].T
        assert tg.compose(first, then).tolist() == [tg.compose(int(a), int(b)) for a, b in zip(first, then)]
        with pytest.raises(NotComposable):
            tg.compose(first, np.roll(then, 1))


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
