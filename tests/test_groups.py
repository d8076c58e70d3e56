import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cech2 import groups
from cech2.crossed_modules import aut_two_group
from cech2.errors import (
    MissingInverse,
    NoIdentityAtZero,
    NotAbelian,
    NotActionHom,
    NotAssociative,
    NotAutomorphism,
    NotHomomorphism,
)
from cech2.groups import (
    conjugacy_class_index,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    hom_kernel_image,
    identity_hom,
    inversion_action,
    klein_four_group,
    semidirect_product,
    symmetric_group,
    trivial_action,
    trivial_group,
    validate_action,
    validate_group,
    validate_hom,
)
from cech2.nerve import nerve_two_group


class TestValidateGroup:
    def test_trivial(self):
        g = validate_group([[0]])
        assert g.order == 1

    def test_z2(self):
        g = validate_group([[0, 1], [1, 0]])
        assert g.order == 2 and g.is_abelian()

    def test_s3_table_from_builder(self, s3):
        g = validate_group(s3.table.tolist(), name="S3")
        assert not g.is_abelian()
        assert g.order_census() == {1: 1, 2: 3, 3: 2}

    def test_no_identity(self):
        with pytest.raises(NoIdentityAtZero):
            validate_group([[1, 0], [0, 1]])

    def test_not_associative(self):
        # row/column 0 fine, but 1*(1*1) != (1*1)*1
        bad = [[0, 1, 2], [1, 2, 2], [2, 0, 1]]
        with pytest.raises((NotAssociative, MissingInverse)) as exc:
            validate_group(bad)
        if isinstance(exc.value, NotAssociative):
            assert len(exc.value.triple) == 3

    def test_missing_inverse(self):
        # identity works but 1 has no inverse: 1*x never hits 0
        bad = [[0, 1, 2], [1, 1, 1], [2, 1, 0]]
        with pytest.raises((NotAssociative, MissingInverse)):
            validate_group(bad)


def _reference_first_bad_triple(t):
    """The full n^3 associativity cube, the check Light's test replaced."""
    t = np.asarray(t)
    left = t[t, :]          # left[a, b, c]  = (ab)c
    right = t[:, t]         # right[a, b, c] = a(bc)
    bad = np.argwhere(left != right)
    return tuple(int(x) for x in bad[0]) if len(bad) else None


def _corrupted_tables(s3):
    level = nerve_two_group(aut_two_group(cyclic_group(3)), 2).levels[2].table
    z5 = cyclic_group(5).table
    for base in (s3.table, z5, level):
        n = len(base)
        for x in range(1, n):
            for y in range(1, n):
                if (x * n + y) % 7 == 0:
                    t = base.copy()
                    t[x, y] = (t[x, y] + 1) % n
                    yield t


class TestLightsTest:
    @pytest.mark.parametrize(
        "chunk_cells", [1, 500, 1 << 22], ids=["row-blocks", "small-blocks", "one-block"]
    )
    def test_same_witness_as_the_full_cube(self, s3, monkeypatch, chunk_cells):
        monkeypatch.setattr(groups, "_CUBE_CHUNK_CELLS", chunk_cells)
        # every table here has one changed cell, which breaks associativity
        for t in _corrupted_tables(s3):
            want = _reference_first_bad_triple(t)
            assert want is not None
            with pytest.raises(NotAssociative) as exc:
                validate_group(t)
            assert exc.value.triple == want

    def test_witness_with_a_non_generator_in_the_middle(self):
        t = cyclic_group(5).table.copy()
        t[3, 1] = 2  # 3 + 1 now reads 2
        assert _reference_first_bad_triple(t) == (1, 2, 1)
        assert 2 not in groups.generating_set(t)
        with pytest.raises(NotAssociative) as exc:
            validate_group(t)
        assert exc.value.triple == (1, 2, 1)

    def test_failure_seen_only_by_a_later_generator(self):
        t = klein_four_group().table.copy()
        t[2, 3] = t[3, 2] = 0
        assert groups.generating_set(t) == [1, 2]
        assert np.array_equal(t[t[:, 1]], t[:, t[1]])  # generator 1 alone passes
        with pytest.raises(NotAssociative) as exc:
            validate_group(t)
        assert exc.value.triple == _reference_first_bad_triple(t) == (1, 2, 2)

    def test_accepts_every_nerve_level(self, s3):
        for level in nerve_two_group(aut_two_group(s3), 2).levels:
            assert _reference_first_bad_triple(level.table) is None
            assert validate_group(level.table).same_table(level)


class TestValidateHom:
    def test_identity_on_z4(self, z4):
        f = validate_hom(z4, z4, [0, 1, 2, 3])
        assert f.is_injective() and f.is_surjective()

    def test_z2_to_z4_doubling(self, z2, z4):
        f = validate_hom(z2, z4, [0, 2])
        assert f.is_injective() and f.image() == [0, 2]

    def test_z2_to_z4_bad(self, z2, z4):
        with pytest.raises(NotHomomorphism) as exc:
            validate_hom(z2, z4, [0, 1])  # 1+1=0 upstairs but 1+1=2 downstairs
        assert exc.value.pair is not None


class TestValidateAction:
    def test_trivial_always_valid(self, s3, z4):
        validate_action(s3, z4, trivial_action(s3, z4).perms)

    def test_inversion_of_z3(self, z2, z3):
        a = validate_action(z2, z3, [[0, 1, 2], [0, 2, 1]])
        assert a.apply(1, 1) == 2

    def test_swap_not_automorphism(self, z2, z4):
        with pytest.raises(NotAutomorphism):
            validate_action(z2, z4, [[0, 1, 2, 3], [0, 2, 1, 3]])

    def test_perm_family_must_be_hom(self, z4, z3):
        # each map is an automorphism but g -> perm(g) is not multiplicative
        perms = [[0, 1, 2], [0, 2, 1], [0, 1, 2], [0, 1, 2]]
        with pytest.raises(NotActionHom):
            validate_action(z4, z3, perms)


class TestSemidirectProduct:
    def test_trivial_action_is_direct_product(self, z3, z4):
        sd = semidirect_product(z4, z3, trivial_action(z4, z3))
        dp = direct_product(z3, z4)
        assert np.array_equal(sd.table, dp.table)

    def test_z3_by_z2_inversion_is_s3(self, z2, z3, s3):
        sd = semidirect_product(z2, z3, inversion_action(z2, z3))
        assert sd.order == 6
        assert not sd.is_abelian()
        assert sd.order_census() == s3.order_census()

    def test_klein_four(self, z2):
        sd = semidirect_product(z2, z2, trivial_action(z2, z2))
        assert sd.is_abelian()
        assert sd.order_census() == {1: 1, 2: 3}

    def test_pair_encoding_row_major(self, z2, z4):
        sd = semidirect_product(z4, z2, trivial_action(z4, z2))
        # (h, g) encodes as h * |G| + g
        assert sd.mul(1 * 4 + 0, 0 * 4 + 3) == 1 * 4 + 3


class TestConjugacyClasses:
    def test_z4_all_singletons(self, z4):
        assert conjugacy_classes(z4) == [[0], [1], [2], [3]]

    def test_s3_sizes(self, s3):
        assert sorted(len(c) for c in conjugacy_classes(s3)) == [1, 2, 3]

    def test_trivial(self, z1):
        assert conjugacy_classes(z1) == [[0]]

    def test_same_as_orbit_reference(self, z2, s3):
        # the orbit loop the cached class labels replaced, kept as the reference
        def reference(group):
            orbits = {tuple(sorted({group.conj(g, x) for g in group.elements()})) for x in group.elements()}
            return sorted(map(list, orbits))

        d8 = semidirect_product(z2, cyclic_group(4), inversion_action(z2, cyclic_group(4)))
        for group in (s3, symmetric_group(4), d8, cyclic_group(257)):
            classes = reference(group)
            assert conjugacy_classes(group) == classes, group.name
            index = {x: i for i, c in enumerate(classes) for x in c}
            assert [conjugacy_class_index(group, x) for x in group.elements()] == [index[x] for x in group.elements()]
        with pytest.raises(ValueError):
            conjugacy_class_index(s3, 6)


class TestHomKernelImage:
    def test_identity(self, z4):
        ker, img = hom_kernel_image(identity_hom(z4))
        assert ker == [0] and img == [0, 1, 2, 3]

    def test_reduction_mod_two(self, z2, z4):
        ker, img = hom_kernel_image(validate_hom(z4, z2, [0, 1, 0, 1]))
        assert ker == [0, 2] and img == [0, 1]

    def test_constant(self, z4, z1):
        ker, img = hom_kernel_image(validate_hom(z4, z1, [0, 0, 0, 0]))
        assert ker == [0, 1, 2, 3] and img == [0]

    def test_kernel_is_normal(self, z4, z2, s3, z1):
        for f in (validate_hom(z4, z2, [0, 1, 0, 1]), validate_hom(s3, z1, [0] * 6)):
            ker, _ = hom_kernel_image(f)
            members = set(ker)
            for g in f.dom.elements():
                for x in ker:
                    assert f.dom.conj(g, x) in members


GROUPS = [trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3)]


@settings(max_examples=120, derandomize=True)
@given(gi=st.integers(0, len(GROUPS) - 1), data=st.data())
def test_group_axioms_property(gi, data):
    g = GROUPS[gi]
    x = data.draw(st.integers(0, g.order - 1))
    y = data.draw(st.integers(0, g.order - 1))
    z = data.draw(st.integers(0, g.order - 1))
    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
    assert g.mul(x, g.inv(x)) == 0
    assert g.mul(g.inv(x), x) == 0


@settings(max_examples=80, derandomize=True)
@given(data=st.data())
def test_action_is_by_automorphisms_property(data):
    z2, z3 = cyclic_group(2), cyclic_group(3)
    act = inversion_action(z2, z3)
    g = data.draw(st.integers(0, 1))
    h1 = data.draw(st.integers(0, 2))
    h2 = data.draw(st.integers(0, 2))
    assert act.apply(g, z3.mul(h1, h2)) == z3.mul(act.apply(g, h1), act.apply(g, h2))
    g2 = data.draw(st.integers(0, 1))
    assert act.apply(z2.mul(g, g2), h1) == act.apply(g, act.apply(g2, h1))


def _reference_generators(group, elements):
    """Scan ``elements`` in order and keep each one outside the subgroup the
    kept ones generate, closing that subgroup under products each time."""
    gens, generated = [], {0}
    for x in sorted(elements):
        if x not in generated:
            gens.append(x)
            closure = generated | {x}
            while (grown := closure | {group.mul(a, b) for a in closure for b in closure}) != closure:
                closure = grown
            generated = closure
    return gens


class TestGeneratingSet:
    """One greedy routine for groups and their subgroups, against the
    reference scan: S4, K4, Z2 x Z4, both levels of the depth-1 nerve over
    aut:S3, and every cyclic subgroup of S4."""

    def test_groups(self, s3):
        cases = [symmetric_group(4), klein_four_group(), direct_product(cyclic_group(2), cyclic_group(4))]
        cases += nerve_two_group(aut_two_group(s3), 1).levels
        for group in cases:
            assert groups.generating_set(group.table) == _reference_generators(group, range(group.order))

    def test_subgroups(self):
        s4 = symmetric_group(4)
        for x in range(s4.order):
            cyclic = {0}
            while (grown := cyclic | {s4.mul(a, x) for a in cyclic}) != cyclic:
                cyclic = grown
            assert groups.generating_set(s4.table, sorted(cyclic)) == _reference_generators(s4, cyclic)


class TestRequireAbelian:
    def test_first_pair_in_row_major_order(self, s3):
        with pytest.raises(NotAbelian) as exc:
            groups.require_abelian(s3)
        pairs = [(a, b) for a in range(6) for b in range(6) if s3.mul(a, b) != s3.mul(b, a)]
        assert exc.value.pair == pairs[0]
        groups.require_abelian(klein_four_group())


class TestMinimalSection:
    def test_least_preimage_and_minus_one_off_the_image(self):
        z4, z2 = cyclic_group(4), cyclic_group(2)
        square = validate_hom(z4, z4, [0, 2, 0, 2])
        assert groups.minimal_section(square).tolist() == [0, -1, 1, -1]
        parity = validate_hom(z4, z2, [0, 1, 0, 1])
        assert groups.minimal_section(parity).tolist() == [0, 1]
