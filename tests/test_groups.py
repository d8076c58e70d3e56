import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cech2 import groups
from cech2.crossed_modules import aut_two_group, segal_bar_two_group, semidirect_two_group
from cech2.errors import (
    MissingInverse,
    NoIdentityAtZero,
    NotAbelian,
    NotActionHom,
    NotAssociative,
    NotAutomorphism,
    NotHomomorphism,
)
from cech2.fixtures import builtin_group, coefficient_from_spec
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
from test_cohomology import _SLICE_SPECS


def _level_groups(xm, depth: int) -> list:
    """Levels 0..depth of the nerve of xm as validated tables, from their
    array products."""
    tables = []
    for p, level in enumerate(nerve_two_group(xm, depth).levels):
        codes = np.arange(level.order)
        tables.append(validate_group(level.products(codes, codes), name=f"N({xm.name})_{p}"))
    return tables


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
    level = _level_groups(aut_two_group(cyclic_group(3)), 2)[2].table
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
            codes = np.arange(level.order)
            table = level.products(codes, codes)
            assert _reference_first_bad_triple(table) is None
            assert np.array_equal(validate_group(table).table, table)


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

    @pytest.mark.parametrize("row", [[0, 1, 5], [0, 1, -1]], ids=["above", "negative"])
    def test_out_of_range_row_is_not_a_permutation(self, z2, z3, row):
        # distinct values, one outside 0..2: neither an IndexError nor a
        # wrapped -1 read as element 2
        with pytest.raises(NotAutomorphism) as exc:
            validate_action(z2, z3, [[0, 1, 2], row])
        assert (exc.value.actor_element, exc.value.pair) == (1, ("not a permutation",))


def _reference_semidirect_product(actor, target, action) -> np.ndarray:
    """The table of target x| actor by the scalar loop that the broadcast in
    ``semidirect_product`` replaced."""
    nh, ng = target.order, actor.order
    table = np.empty((nh * ng, nh * ng), dtype=np.int64)
    for h1 in target.elements():
        for g1 in actor.elements():
            for h2 in target.elements():
                row = target.mul(h1, action.apply(g1, h2)) * ng
                for g2 in actor.elements():
                    table[h1 * ng + g1, h2 * ng + g2] = row + actor.mul(g1, g2)
    return table


class TestSemidirectProduct:
    @pytest.mark.parametrize("spec", _SLICE_SPECS)
    def test_same_table_as_reference(self, spec):
        # the morphisms of every library coefficient and of its hat, and the
        # objects of the hat of every library coefficient
        xm = coefficient_from_spec(spec)
        got = semidirect_product(xm.G, xm.H, xm.alpha)
        assert got.table.dtype == np.int64
        assert np.array_equal(got.table, _reference_semidirect_product(xm.G, xm.H, xm.alpha))

    @pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "Z4", "S3", "K4"])
    def test_bar_direct_product_as_reference(self, name):
        # bar(H) multiplies its morphisms in direct_product(H, H), and
        # Z2 |x bar(H) in a semidirect product over it, Z2 inverting an
        # abelian H on both components
        H, G = builtin_group(name), cyclic_group(2)
        hh = direct_product(H, H)
        assert np.array_equal(hh.table, _reference_semidirect_product(H, H, trivial_action(H, H)))
        alpha = inversion_action(G, H) if H.is_abelian() else trivial_action(G, H)
        nh = H.order
        diag = [[alpha.apply(g, x // nh) * nh + alpha.apply(g, x % nh) for x in hh.elements()] for g in G.elements()]
        tg = semidirect_two_group(G, segal_bar_two_group(H), alpha)
        assert np.array_equal(tg.mor.table, _reference_semidirect_product(G, hh, validate_action(G, hh, diag)))

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
        cases += _level_groups(aut_two_group(s3), 1)
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


# The full scans that the checks on generators replaced, kept as references:
# Light's test on the int64 table, the n^2 hom check and the sequential
# action loops.

def _reference_validate_group(table):
    t = np.asarray(table, dtype=np.int64)
    n = t.shape[0]
    if t.min() < 0 or t.max() >= n:
        raise NoIdentityAtZero(f"table entries must lie in 0..{n - 1}")
    idx = np.arange(n)
    if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        raise NoIdentityAtZero("row/column 0 must act as the identity")
    if not all(np.array_equal(t[t[:, a]], t[:, t[a]]) for a in groups.generating_set(t)):
        raise NotAssociative(_reference_first_bad_triple(t))
    grp = groups.FiniteGroup(t)
    lacking = (grp.inverse < 0) | (t[grp.inverse, idx] != 0)
    if lacking.any():
        raise MissingInverse(int(np.argmax(lacking)))
    return grp.table


def _reference_validate_hom(dom, cod, map):
    m = np.asarray(map, dtype=np.int64)
    if m.min() < 0 or m.max() >= cod.order:
        raise NotHomomorphism(("range", int(m.max())))
    lhs = m[dom.table]
    rhs = cod.table[np.ix_(m, m)]
    if not np.array_equal(lhs, rhs):
        raise NotHomomorphism(tuple(int(x) for x in np.argwhere(lhs != rhs)[0]))
    return m


def _reference_validate_action(actor, target, perms):
    p = np.asarray(perms, dtype=np.int64)
    for g in actor.elements():
        perm = p[g]
        if len(set(perm.tolist())) != target.order:
            raise NotAutomorphism(g, ("not a permutation",))
        lhs = perm[target.table]
        rhs = target.table[np.ix_(perm, perm)]
        if not np.array_equal(lhs, rhs):
            raise NotAutomorphism(g, tuple(int(x) for x in np.argwhere(lhs != rhs)[0]))
    if not np.array_equal(p[0], np.arange(target.order)):
        raise NotActionHom((0, 0))
    for g1 in actor.elements():
        for g2 in actor.elements():
            if not np.array_equal(p[actor.mul(g1, g2)], p[g1][p[g2]]):
                raise NotActionHom((g1, g2))
    return p


def _outcome(check, *args):
    """The array a check returns, or the type, message and witness of what
    it raises."""
    try:
        out = check(*args)
    except (NoIdentityAtZero, NotAssociative, MissingInverse, NotHomomorphism, NotAutomorphism, NotActionHom) as exc:
        return type(exc).__name__, str(exc), vars(exc)
    return "ok", np.asarray(getattr(out, "table", getattr(out, "map", getattr(out, "perms", out)))).tolist()


def _d8():
    return semidirect_product(cyclic_group(2), cyclic_group(4), inversion_action(cyclic_group(2), cyclic_group(4)))


# the builtin groups, D8, S4 and the depth-1 nerve level over aut:S3
LIBRARY_GROUPS = [builtin_group(name) for name in ("Z1", "Z2", "Z3", "Z4", "Z6", "S3", "K4")]
LIBRARY_GROUPS += [_d8(), symmetric_group(4), _level_groups(aut_two_group(symmetric_group(3)), 1)[1]]
# the automorphism 2-group of each library group of order at most 8
AUT_XMODS = [aut_two_group(g) for g in LIBRARY_GROUPS if g.order <= 8]


def _extend(dom, cod, images):
    """The map that sends 0 to 0 and x g to m(x) images[g] for each generator
    g, along the search from 0 by right multiplication that
    ``generating_set`` makes; it is a hom iff some hom sends each generator
    to its image."""
    m, frontier = {0: 0}, [0]
    while frontier:
        fresh = []
        for x in frontier:
            for g, v in zip(dom.generators, images):
                y = dom.mul(x, g)
                if y not in m:
                    m[y] = cod.mul(m[x], v)
                    fresh.append(y)
        frontier = fresh
    return [m[x] for x in dom.elements()]


@st.composite
def _maps(draw, cods=LIBRARY_GROUPS):
    """(dom, cod, map): a hom or not, by extending images of generators."""
    dom = draw(st.sampled_from(LIBRARY_GROUPS))
    cod = draw(st.sampled_from(cods))
    images = [draw(st.integers(0, cod.order - 1)) for _ in dom.generators]
    return dom, cod, _extend(dom, cod, images)


class TestGeneratorChecksAgainstFullScans:
    """Every check on generators gives the verdict and the witness of the
    full scan it replaced."""

    def test_generators_cached(self):
        for group in LIBRARY_GROUPS:
            assert group.generators == tuple(groups.generating_set(group.table))
            assert group.generators is group.generators

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(gi=st.integers(0, len(LIBRARY_GROUPS) - 1), data=st.data())
    def test_corrupted_tables(self, gi, data):
        table = LIBRARY_GROUPS[gi].table.copy()
        n = len(table)
        for _ in range(data.draw(st.integers(0, 2))):
            x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            table[x, y] = v
        assert _outcome(validate_group, table) == _outcome(_reference_validate_group, table)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_random_maps(self, data):
        dom = data.draw(st.sampled_from(LIBRARY_GROUPS))
        cod = data.draw(st.sampled_from(LIBRARY_GROUPS))
        m = data.draw(st.lists(st.integers(0, cod.order - 1), min_size=dom.order, max_size=dom.order))
        assert _outcome(validate_hom, dom, cod, m) == _outcome(_reference_validate_hom, dom, cod, m)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=_maps(), data=st.data())
    def test_homs_changed_off_the_generators(self, case, data):
        dom, cod, m = case
        assert _outcome(validate_hom, dom, cod, m) == _outcome(_reference_validate_hom, dom, cod, m)
        others = [x for x in dom.elements() if x not in dom.generators]
        x = data.draw(st.sampled_from(others))
        m[x] = (m[x] + data.draw(st.integers(1, max(1, cod.order - 1)))) % cod.order
        want = _outcome(_reference_validate_hom, dom, cod, m)
        assert _outcome(validate_hom, dom, cod, m) == want
        assert cod.order == 1 or want[0] == "NotHomomorphism"

    def test_identity_pinned_on_the_trivial_group(self, z1, z2):
        with pytest.raises(NotHomomorphism) as exc:
            validate_hom(z1, z2, [1])
        assert exc.value.pair == (0, 0)

    def test_zero_endomorphisms(self, z2, z3):
        # perms[g] = 0 for every g respects every law checked on generators;
        # only the permutation check refuses it
        zero = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(NotAutomorphism) as exc:
            validate_action(z2, z3, zero)
        assert (exc.value.actor_element, exc.value.pair) == (0, ("not a permutation",))
        assert _outcome(validate_action, z2, z3, zero) == _outcome(_reference_validate_action, z2, z3, zero)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(xi=st.integers(0, len(AUT_XMODS) - 1), data=st.data())
    def test_broken_actions(self, xi, data):
        # an action through a map into Aut(target), then perhaps one row
        # replaced by another automorphism, one swap in a row, or one entry
        # repeated in a row
        aut = AUT_XMODS[xi]
        actor = data.draw(st.sampled_from(LIBRARY_GROUPS))
        images = [data.draw(st.integers(0, aut.G.order - 1)) for _ in actor.generators]
        perms = aut.alpha.perms[_extend(actor, aut.G, images)]
        m, g = aut.H.order, data.draw(st.integers(0, actor.order - 1))
        a, b = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        kind = data.draw(st.sampled_from(["none", "row", "swap", "repeat"]))
        if kind == "row":
            perms[g] = aut.alpha.perms[data.draw(st.integers(0, aut.G.order - 1))]
        elif kind == "swap":
            perms[g, [a, b]] = perms[g, [b, a]]
        elif kind == "repeat":
            perms[g, a] = perms[g, b]
        want = _outcome(_reference_validate_action, actor, aut.H, perms)
        assert _outcome(validate_action, actor, aut.H, perms) == want
