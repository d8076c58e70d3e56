import copy
import itertools
import tracemalloc

import numpy as np
import pytest

from cech2 import nerve
from cech2.crossed_modules import (
    TwoGroup,
    aut_two_group,
    discrete_two_group,
    hat_construction,
    segal_bar_two_group,
    semidirect_two_group,
    shift_two_group,
    two_group_from_crossed_module,
)
from cech2.errors import BudgetExceeded, CechError, MissingInverse, NotHomomorphism
from cech2.groups import (
    FiniteGroup,
    cyclic_group,
    inversion_action,
    klein_four_group,
    symmetric_group,
    trivial_action,
    trivial_group,
)
from cech2.nerve import (
    MAX_LEVEL_ORDER,
    check_bar_multiplication,
    check_level_iso,
    check_simplicial_identities,
    nerve_two_group,
)


@pytest.fixture(scope="module")
def nerve_z2z4():
    from cech2.fixtures import z2z4_crossed_module

    return nerve_two_group(z2z4_crossed_module(), 4)


@pytest.fixture(scope="module")
def nerve_aut3():
    return nerve_two_group(aut_two_group(cyclic_group(3)), 4)


class TestNerveConstruction:
    def test_level_zero_and_one(self, nerve_z2z4, z2z4):
        assert nerve_z2z4.levels[0].order == z2z4.G.order
        assert nerve_z2z4.levels[1].order == z2z4.G.order * z2z4.H.order

    def test_level_cardinalities(self, nerve_z2z4, nerve_aut3):
        assert [g.order for g in nerve_z2z4.levels] == [4, 8, 16, 32, 64]
        assert [g.order for g in nerve_aut3.levels] == [2, 6, 18, 54, 162]

    def test_discrete_levels_constant(self, s3):
        nsg = nerve_two_group(discrete_two_group(s3), 3)
        assert [g.order for g in nsg.levels] == [6, 6, 6, 6]
        for p, maps in nsg.faces.items():
            for f in maps:
                assert np.array_equal(f.map, np.arange(6))

    def test_depth_cap(self, z2z4):
        assert nerve_two_group(z2z4, 4).depth == 4
        with pytest.raises(BudgetExceeded) as exc:
            nerve_two_group(z2z4, 5)
        assert (exc.value.required, exc.value.budget) == (5, 4)

    @pytest.mark.parametrize("depth", [-1, -2])
    def test_negative_depth(self, z2z4, depth):
        with pytest.raises(ValueError, match=f"got {depth}"):
            nerve_two_group(z2z4, depth)
        assert [g.order for g in nerve_two_group(z2z4, 0).levels] == [4]

    def test_level_order_guard(self, s3, monkeypatch):
        # the cap is on the top level's generator columns, n (1 + k): aut:S3
        # at depth 4 has 7776 * 11 of them and passes; shift:Z32 at depth 4
        # has 32^4 * 5 and is refused before any product is taken
        xm = aut_two_group(s3)
        assert [g.order for g in nerve_two_group(xm, 4).levels] == [6, 36, 216, 1296, 7776]

        def no_products(*args):
            raise AssertionError("a product was taken past the guard")

        monkeypatch.setattr(nerve.NerveLevel, "products", no_products)
        with pytest.raises(BudgetExceeded) as exc:
            nerve_two_group(shift_two_group(cyclic_group(32)), 4)
        assert (exc.value.required, exc.value.budget) == (32**4 * 5, MAX_LEVEL_ORDER)
        assert MAX_LEVEL_ORDER < 32**4 * 5

    def test_reach_aut_k4_depth_4(self):
        # a top level of 1536 elements, under the cap: the tables built by
        # broadcasting and checked on generators, then both checks, within
        # 48 MiB traced (n^2 int64 gathers took 73 MiB)
        xm = aut_two_group(klein_four_group())
        tracemalloc.start()
        try:
            nsg = nerve_two_group(xm, 4)
            ids, iso = check_simplicial_identities(nsg), check_level_iso(nsg, xm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ids["levels"] == [6, 24, 96, 384, 1536]
        assert ids["ok"] and iso["ok"], ids["failures"] + iso["failures"]
        assert peak <= 48 * 2**20


# The scalar builder the vectorised one replaced, kept as the reference.

def _decode(x: int, p: int, nh: int) -> tuple[int, list[int]]:
    hs = []
    for _ in range(p):
        x, r = divmod(x, nh)
        hs.append(r)
    return x, hs[::-1]


def _encode(g: int, hs, nh: int) -> int:
    x = g
    for h in hs:
        x = x * nh + h
    return x


def _reference_level_table(xm, p: int) -> np.ndarray:
    G, H, t, alpha = xm.G, xm.H, xm.t, xm.alpha
    nh = H.order
    n = G.order * nh**p
    table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        g1, hs1 = _decode(x, p, nh)
        # sources sigma_i of the arrows of x
        sigmas = []
        acc = g1
        for h in hs1:
            sigmas.append(acc)
            acc = G.mul(t(h), acc)
        for y in range(n):
            g2, hs2 = _decode(y, p, nh)
            ks = [H.mul(h1, alpha.apply(s, h2)) for h1, s, h2 in zip(hs1, sigmas, hs2)]
            table[x, y] = _encode(G.mul(g1, g2), ks, nh)
    return table


def _reference_faces(xm, p: int) -> list[list[int]]:
    G, H, t = xm.G, xm.H, xm.t
    nh = H.order
    maps = []
    for i in range(p + 1):
        col = []
        for x in range(G.order * nh**p):
            g, hs = _decode(x, p, nh)
            if i == 0:
                col.append(_encode(G.mul(t(hs[0]), g), hs[1:], nh))
            elif i == p:
                col.append(_encode(g, hs[:-1], nh))
            else:
                merged = hs[:i - 1] + [H.mul(hs[i], hs[i - 1])] + hs[i + 1:]
                col.append(_encode(g, merged, nh))
        maps.append(col)
    return maps


def _reference_degeneracies(xm, p: int) -> list[list[int]]:
    nh = xm.H.order
    maps = []
    for i in range(p + 1):
        col = []
        for x in range(xm.G.order * nh**p):
            g, hs = _decode(x, p, nh)
            col.append(_encode(g, hs[:i] + [0] + hs[i:], nh))
        maps.append(col)
    return maps


class TestAgainstScalarReference:
    """Every library coefficient and its hat, to the deepest level of order
    at most 400 (within the depth cap)."""

    def test_same_tables_and_maps(self, library_xmods):
        for base in library_xmods:
            for xm in (base, hat_construction(base)[0]):
                depth = max(
                    d for d in range(nerve.DEFAULT_LEVEL_CAP + 1)
                    if xm.G.order * xm.H.order**d <= 400
                )
                nsg = nerve_two_group(xm, depth)
                for p, level in enumerate(nsg.levels):
                    codes = np.arange(level.order)
                    assert np.array_equal(level.products(codes, codes), _reference_level_table(xm, p)), (xm.name, p)
                for p in range(1, depth + 1):
                    got = [f.map.tolist() for f in nsg.faces[p]]
                    assert got == _reference_faces(xm, p), (xm.name, p)
                for p in range(depth):
                    got = [s.map.tolist() for s in nsg.degeneracies[p]]
                    assert got == _reference_degeneracies(xm, p), (xm.name, p)


class TestSimplicialIdentities:
    def test_z2z4(self, nerve_z2z4):
        report = check_simplicial_identities(nerve_z2z4)
        assert report["ok"], report["failures"]

    def test_aut3(self, nerve_aut3):
        report = check_simplicial_identities(nerve_aut3)
        assert report["ok"], report["failures"]


class TestLevelIso:
    def test_z2z4(self, nerve_z2z4, z2z4):
        report = check_level_iso(nerve_z2z4, z2z4)
        assert report["ok"], report["failures"]

    def test_aut3(self, nerve_aut3):
        report = check_level_iso(nerve_aut3, aut_two_group(cyclic_group(3)))
        assert report["ok"], report["failures"]

    def test_string_model_built_once_per_crossed_module(self, nerve_aut3, monkeypatch):
        built = []

        def counted(xm):
            built.append(xm)
            return two_group_from_crossed_module(xm)

        monkeypatch.setattr(nerve, "two_group_from_crossed_module", counted)
        nerve._string_model.cache_clear()
        xm, other = aut_two_group(cyclic_group(3)), aut_two_group(cyclic_group(3))
        reports = [check_level_iso(nerve_aut3, m) for m in (xm, xm, other, xm)]
        assert all(r == reports[0] for r in reports) and reports[0]["ok"]
        # a crossed module is found again only as the same object
        assert built == [xm, other]

    def test_point_level(self, z2z4, nerve_z2z4):
        # level 0 is just the object group
        level = nerve_z2z4.levels[0]
        codes = np.arange(level.order)
        assert np.array_equal(level.products(codes, codes), z2z4.G.table)

    def test_strings_in_any_order(self, nerve_aut3, monkeypatch):
        # the strings listed in a shuffled order: their codes are then a
        # non-identity permutation of the level, by which the stored table
        # is read along both axes
        listed = TwoGroup.strings
        rng = np.random.default_rng(3)

        def shuffled(tg, p):
            x, arrows = listed(tg, p)
            order = rng.permutation(len(x))
            return x[order], arrows[order]

        monkeypatch.setattr(TwoGroup, "strings", shuffled)
        report = check_level_iso(nerve_aut3, aut_two_group(cyclic_group(3)))
        assert report["ok"], report["failures"]

    def test_tampered_product(self, nerve_aut3):
        # level 2 with the product of 5 by its last generator changed
        nsg = copy.copy(nerve_aut3)
        nsg.levels = list(nerve_aut3.levels)
        level = copy.copy(nsg.levels[2])
        level.translations = level.translations.copy()
        level.translations[5, -1] = (level.translations[5, -1] + 1) % level.order
        nsg.levels[2] = level
        report = check_level_iso(nsg, aut_two_group(cyclic_group(3)))
        assert report["failures"] == ["level 2: product mismatch"]

    def test_tampered_face(self, nerve_aut3):
        nsg = copy.copy(nerve_aut3)
        nsg.faces = dict(nerve_aut3.faces)
        d = list(nsg.faces[3])
        face = copy.copy(d[2])
        face.map = face.map.copy()
        face.map[40] = (face.map[40] + 1) % nsg.levels[2].order
        d[2] = face
        nsg.faces[3] = d
        report = check_level_iso(nsg, aut_two_group(cyclic_group(3)))
        assert report["failures"] == ["level 3: d2 disagrees with string model"]


# The string listing and the bar pair loop the vectorised ones replaced,
# kept as references.

def _reference_strings(tg, p: int) -> list[tuple[int, tuple[int, ...]]]:
    """Composable p-strings (start object, morphisms), the definitional model."""
    if p == 0:
        return [(x, ()) for x in tg.ob.elements()]
    by_src: dict[int, list[int]] = {}
    for m in tg.mor.elements():
        by_src.setdefault(tg.src(m), []).append(m)
    out = [(x, (m,)) for x in tg.ob.elements() for m in by_src.get(x, [])]
    for _ in range(p - 1):
        out = [
            (x, ms + (m,))
            for (x, ms) in out
            for m in by_src.get(tg.tgt(ms[-1]), [])
        ]
    return out


def _reference_bar_multiplication(tg, G, H, alpha, p: int) -> dict:
    """The pair loop on tg = G |x bar(H); a product that is not a string
    counts as a mismatch."""
    ng, nh = G.order, H.order
    failures = []
    pairs_checked = []

    def decode_string(x, ms):
        h0, g = divmod(x, ng)
        chain = [h0]
        for m in ms:
            ab, gm = divmod(m, ng)
            a, b = divmod(ab, nh)
            if gm != g or a != chain[-1]:
                return None
            chain.append(b)
        return g, chain

    for q in range(p + 1):
        strings = _reference_strings(tg, q)
        count = 0
        for s1 in strings:
            g1, c1 = decode_string(*s1)
            for s2 in strings:
                g2, c2 = decode_string(*s2)
                prod = (
                    tg.ob.mul(s1[0], s2[0]),
                    tuple(tg.mor.mul(a, b) for a, b in zip(s1[1], s2[1])),
                )
                want = (G.mul(g1, g2), [H.mul(a, alpha.apply(g1, b)) for a, b in zip(c1, c2)])
                if decode_string(*prod) != want:
                    failures.append(f"level {q}: bar multiplication mismatch")
                    break
                count += 1
            else:
                continue
            break
        pairs_checked.append(count)
    return {"ok": not failures, "failures": failures, "pairs": pairs_checked}


def _bar_cases():
    z1, z2, z3, z4 = (cyclic_group(n) for n in (1, 2, 3, 4))
    return {
        "Z1|xbar(Z3)": (z1, z3, trivial_action(z1, z3)),
        "Z2|xbar(Z3)": (z2, z3, inversion_action(z2, z3)),
        "Z2|xbar(Z4)": (z2, z4, inversion_action(z2, z4)),
    }


def _reference_string_products(tg, x, arrows, digits, radix):
    """``TwoGroup.string_products`` with every table, map and code in int64."""
    code = end = tg.ob.table[x[:, None], x[None, :]]
    composable = np.ones(code.shape, dtype=bool)
    for m in arrows.T:
        pm = tg.mor.table[m[:, None], m[None, :]]
        composable &= tg.src.map[pm] == end
        end = tg.tgt.map[pm]
        code = code * radix + digits[pm]
    return code, composable


class TestStrings:
    def test_same_strings_as_reference(self, library_xmods):
        tgs = [two_group_from_crossed_module(xm) for xm in library_xmods]
        tgs += [semidirect_two_group(G, segal_bar_two_group(H), a) for G, H, a in _bar_cases().values()]
        for tg in tgs:
            for p in range(4):
                x, arrows = tg.strings(p)
                assert arrows.shape == (len(x), p)
                assert list(zip(x.tolist(), map(tuple, arrows.tolist()))) == _reference_strings(tg, p), (tg.name, p)

    def test_products_in_the_narrowest_type(self, library_xmods):
        # against the products taken in int64, with the level check's digits
        # (kernel parts, radix |H|) and the interchange law's (whole arrows,
        # radix |mor|); Z256 as a shift 2-group has one object and a radix
        # of 256, which must fit the codes' type as well as they do
        tgs = [two_group_from_crossed_module(xm) for xm in library_xmods]
        tgs += [semidirect_two_group(G, segal_bar_two_group(H), a) for G, H, a in _bar_cases().values()]
        tgs.append(two_group_from_crossed_module(shift_two_group(cyclic_group(256))))
        for tg in tgs:
            ng, nm = tg.ob.order, tg.mor.order
            for p in range(4):
                x, arrows = tg.strings(p)
                if len(x) ** 2 > MAX_LEVEL_ORDER:
                    continue
                for digits, radix in ((np.arange(nm) // ng, nm // ng), (np.arange(nm), nm)):
                    code, composable = tg.string_products(x, arrows, digits, radix, (x, arrows))
                    want_code, want_composable = _reference_string_products(tg, x, arrows, digits, radix)
                    assert code.dtype == np.min_scalar_type(max(ng * radix**p - 1, radix)), (tg.name, p)
                    assert np.array_equal(code, want_code) and np.array_equal(composable, want_composable)

    def test_products_of_shuffled_strings(self, library_xmods):
        # rows and columns in the same non-identity order, so every take
        # along a row block follows a shuffled column order
        rng = np.random.default_rng(17)
        tgs = [two_group_from_crossed_module(xm) for xm in library_xmods]
        tgs += [semidirect_two_group(G, segal_bar_two_group(H), a) for G, H, a in _bar_cases().values()]
        for tg in tgs:
            ng, nm = tg.ob.order, tg.mor.order
            for p in range(1, 4):
                x, arrows = tg.strings(p)
                if len(x) ** 2 > MAX_LEVEL_ORDER:
                    continue
                order = rng.permutation(len(x))
                x, arrows = x[order], arrows[order]
                code, composable = tg.string_products(x, arrows, np.arange(nm) // ng, nm // ng, (x, arrows))
                want_code, want_composable = _reference_string_products(tg, x, arrows, np.arange(nm) // ng, nm // ng)
                assert np.array_equal(code, want_code) and np.array_equal(composable, want_composable), (tg.name, p)

    def test_products_peak_at_level_4_of_aut_k4(self):
        # 1536 strings: the n x n codes, mask and one read of an n x n
        # result at a time, within 16 MiB traced (the n x n two-index
        # gathers of every arrow product peaked at 20.3 MiB)
        xm = aut_two_group(klein_four_group())
        tg = two_group_from_crossed_module(xm)
        x, arrows = tg.strings(4)
        digits = np.arange(tg.mor.order) // xm.G.order
        tracemalloc.start()
        try:
            code, composable = tg.string_products(x, arrows, digits, xm.H.order, (x, arrows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code.shape == (1536, 1536) and composable.all()
        assert peak <= 16 * 2**20

    def test_products_refuse_before_any_pair_array(self, z2):
        # all pairs of 2049 strings, one more than the cap admits
        tg = two_group_from_crossed_module(discrete_two_group(z2))
        x = np.zeros(2049, dtype=np.int64)
        arrows = np.zeros((len(x), 1), dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as exc:
                tg.string_products(x, arrows, np.zeros(tg.mor.order, dtype=np.int64), 2, (x, arrows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.required, exc.value.budget) == (2049**2, MAX_LEVEL_ORDER)
        assert peak < len(x) ** 2  # not even one n x n array of bools


class TestBarMultiplication:
    def test_trivial_actor_componentwise(self, z3):
        report = check_bar_multiplication(trivial_group(), z3, trivial_action(trivial_group(), z3), 2)
        assert report["ok"]

    def test_z2_inverting_z3(self, z2, z3):
        report = check_bar_multiplication(z2, z3, inversion_action(z2, z3), 2)
        assert report["ok"]
        assert report["pairs"] == [36, 324, 2916]
        report = check_bar_multiplication(z2, z3, inversion_action(z2, z3), 4)
        assert report == {"ok": True, "failures": [], "pairs": [36, 324, 2916, 26244, 236196]}

    @pytest.mark.parametrize("case", list(_bar_cases()))
    def test_same_as_reference(self, case):
        G, H, alpha = _bar_cases()[case]
        ref = _reference_bar_multiplication(semidirect_two_group(G, segal_bar_two_group(H), alpha), G, H, alpha, 3)
        assert ref["ok"]
        for p in range(4):
            assert check_bar_multiplication(G, H, alpha, p) == {"ok": True, "failures": [], "pairs": ref["pairs"][: p + 1]}

    def test_corrupted_morphism_product(self, z2, z3, monkeypatch):
        # one product (g, (a, b)) turned into (g, (a, b + 1)): level 1 finds
        # a wrong chain, deeper levels also products that are not strings
        alpha = inversion_action(z2, z3)
        tg = semidirect_two_group(z2, segal_bar_two_group(z3), alpha)
        table = tg.mor.table.copy()
        ab, g = divmod(int(table[5, 7]), 2)
        a, b = divmod(ab, 3)
        table[5, 7] = (a * 3 + (b + 1) % 3) * 2 + g
        tg.mor = FiniteGroup(table, name=tg.mor.name)
        monkeypatch.setattr(nerve, "semidirect_two_group", lambda *args: tg)
        ref = _reference_bar_multiplication(tg, z2, z3, alpha, 3)
        report = check_bar_multiplication(z2, z3, alpha, 3)
        assert report == ref
        assert report["failures"] == [f"level {q}: bar multiplication mismatch" for q in (1, 2, 3)]
        # level 1 lists the arrows by source: 5 and 7 are strings 5 and 9 of
        # 18, so pair 5 * 18 + 9 is the first to fail
        assert report["pairs"] == [36, 99, 606, 4728]

    def test_z2_on_z4_depth_4_peak(self, z2, z4):
        # 2 * 4^5 = 2048 strings on top, at the cap, within 40 MiB traced
        # (n x n two-index gathers for the expected codes peaked at 44.3 MiB)
        tracemalloc.start()
        try:
            report = check_bar_multiplication(z2, z4, inversion_action(z2, z4), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["ok"] and report["pairs"] == [(2 * 4 ** (q + 1)) ** 2 for q in range(5)]
        assert peak <= 40 * 2**20

    def test_level_zero_is_plain_group(self, z2, z3):
        report = check_bar_multiplication(z2, z3, inversion_action(z2, z3), 0)
        assert report["ok"] and len(report["pairs"]) == 1

    def test_cap(self, z2, z3):
        with pytest.raises(BudgetExceeded) as exc:
            check_bar_multiplication(z2, z3, inversion_action(z2, z3), 5)
        assert (exc.value.required, exc.value.budget) == (5, 4)

    @pytest.mark.parametrize("depth", [-1, -2])
    def test_negative_depth(self, z2, z3, depth):
        with pytest.raises(ValueError, match=f"got {depth}"):
            check_bar_multiplication(z2, z3, inversion_action(z2, z3), depth)

    def test_level_order_guard(self, z2):
        # the cap is on the top level's generator columns: Z2 |x bar(Z13) at
        # depth 4 lists 2 * 13^5 strings on top, with 1 + 1 + 5 generator
        # columns; Z2 |x bar(Z5) at depth 4 (6250 strings) passes
        z13 = cyclic_group(13)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as exc:
                check_bar_multiplication(z2, z13, inversion_action(z2, z13), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.required, exc.value.budget) == (2 * 13**5 * 7, MAX_LEVEL_ORDER)
        assert peak < 2**20
        z5 = cyclic_group(5)
        assert check_bar_multiplication(z2, z5, inversion_action(z2, z5), 4)["pairs"][-1] == 6250**2


# The checks of every pair that the generator paths replaced, kept as
# references: each must give the same report wherever the old cap of 2048
# strings admitted it.

def _reference_check_level_iso(nsg, xm) -> dict:
    """``check_level_iso`` comparing all n^2 string products with the table
    of each level, read from its array product."""
    tg = two_group_from_crossed_module(xm)
    ng, nh = xm.G.order, xm.H.order
    failures = []
    for p, level in enumerate(nsg.levels):
        x, arrows = tg.strings(p)
        if len(x) != level.order:
            failures.append(f"level {p}: {len(x)} strings vs order {level.order}")
            continue
        ks = list(arrows.T // ng)
        codes = nerve._encode(x, ks, nh)
        if np.bincount(codes).max() > 1:
            failures.append(f"level {p}: string coordinates collide")
            continue
        prod, composable = tg.string_products(x, arrows, np.arange(tg.mor.order) // ng, nh, (x, arrows))
        if not (composable & (prod == level.products(codes, codes))).all():
            failures.append(f"level {p}: product mismatch")
        if p >= 1:
            want = {0: nerve._encode(tg.tgt.map[arrows[:, 0]], ks[1:], nh), p: nerve._encode(x, ks[:-1], nh)}
            for i in range(1, p):
                mid = tg.compose(arrows[:, i - 1], arrows[:, i])
                want[i] = nerve._encode(x, ks[:i - 1] + [mid // ng] + ks[i + 1:], nh)
            order = list(want)
            bad = np.array([want[i] != nsg.faces[p][i].map[codes] for i in order])
            if bad.any():
                first = int(np.argmax(bad.any(axis=0)))
                failures.append(f"level {p}: d{order[int(np.argmax(bad[:, first]))]} disagrees with string model")
    return {"ok": not failures, "failures": failures, "levels": [g.order for g in nsg.levels]}


def _reference_check_bar(G, H, alpha, p: int, tg=None) -> dict:
    """``check_bar_multiplication`` on all n^2 pairs of each level."""
    tg = tg or semidirect_two_group(G, segal_bar_two_group(H), alpha)
    ng, nh = G.order, H.order
    target = np.arange(tg.mor.order) // ng % nh
    failures, pairs_checked = [], []
    for q in range(p + 1):
        x, arrows = tg.strings(q)
        code, ok = tg.string_products(x, arrows, target, nh, (x, arrows))
        h0, g = np.divmod(x, ng)
        twisted = lambda h: H.table[h[:, None], alpha.perms[g][:, h]]
        want = twisted(h0) * ng + G.table[g[:, None], g]
        for h in target[arrows.T]:
            want = want * nh + twisted(h)
        ok &= code == want
        pairs_checked.append(ok.size if ok.all() else int(np.argmin(ok)))
        if not ok.all():
            failures.append(f"level {q}: bar multiplication mismatch")
    return {"ok": not failures, "failures": failures, "pairs": pairs_checked}


def _reference_simplicial_identities(nsg) -> list:
    """The loops ``check_simplicial_identities`` replaced; their failures."""
    failures, N = [], nsg.depth
    for p in range(2, N + 1):
        d, dlow = nsg.faces[p], nsg.faces[p - 1]
        for j in range(p + 1):
            for i in range(j):
                if not np.array_equal(dlow[i].map[d[j].map], dlow[j - 1].map[d[i].map]):
                    failures.append(f"d{i} d{j} != d{j-1} d{i} at level {p}")
    for p in range(N - 1):
        s, shigh = nsg.degeneracies[p], nsg.degeneracies[p + 1]
        for j in range(p + 1):
            for i in range(j + 1):
                if not np.array_equal(shigh[j + 1].map[s[i].map], shigh[i].map[s[j].map]):
                    failures.append(f"s{j+1} s{i} != s{i} s{j} at level {p}")
    for p in range(N):
        s, d = nsg.degeneracies[p], nsg.faces[p + 1]
        for j in range(p + 1):
            for i in range(p + 2):
                composite = d[i].map[s[j].map]
                if i in (j, j + 1):
                    if not np.array_equal(composite, np.arange(nsg.levels[p].order)):
                        failures.append(f"d{i} s{j} != id at level {p}")
                elif i < j and p >= 1:
                    if not np.array_equal(composite, nsg.degeneracies[p - 1][j - 1].map[nsg.faces[p][i].map]):
                        failures.append(f"d{i} s{j} != s{j-1} d{i} at level {p}")
                elif i > j + 1 and p >= 1:
                    if not np.array_equal(composite, nsg.degeneracies[p - 1][j].map[nsg.faces[p][i - 1].map]):
                        failures.append(f"d{i} s{j} != s{j} d{i-1} at level {p}")
    return failures


def _with_map(nsg, kind: str, p: int, i: int, code: int):
    """nsg with map i of faces or degeneracies at level p changed at code."""
    out = copy.copy(nsg)
    maps = dict(getattr(nsg, kind))
    row = list(maps[p])
    f = copy.copy(row[i])
    f.map = f.map.copy()
    f.map[code] = (f.map[code] + 1) % f.cod.order
    row[i] = f
    maps[p] = row
    setattr(out, kind, maps)
    return out


def _deepest(xm, cap: int = 2048) -> int:
    return max(d for d in range(nerve.DEFAULT_LEVEL_CAP + 1) if xm.G.order * xm.H.order**d <= cap)


class TestAgainstFullScans:
    def test_level_iso_and_identities(self, library_xmods):
        # every library coefficient and its hat to the deepest level of the
        # old cap, intact and with one face or degeneracy changed at one code
        for base in library_xmods:
            for xm in (base, hat_construction(base)[0]):
                nsg = nerve_two_group(xm, _deepest(xm))
                failing, other = [], []  # changed maps that break an identity, and maps changed anywhere
                if nsg.depth >= 2:
                    top = nsg.depth
                    failing += [_with_map(nsg, "faces", top, 1, nsg.levels[top].order // 2)]
                    failing += [_with_map(nsg, "degeneracies", top - 1, 0, 1)]
                    other += [_with_map(nsg, "faces", p, p, 1 % nsg.levels[p].order) for p in range(1, top + 1)]
                    other += [_with_map(nsg, "degeneracies", p, 0, 1 % nsg.levels[p].order) for p in range(top)]
                for case in [nsg, *failing, *other]:
                    assert check_level_iso(case, xm) == _reference_check_level_iso(case, xm), xm.name
                    got = check_simplicial_identities(case)
                    assert got["failures"] == _reference_simplicial_identities(case), xm.name
                    breaks = any(case is f for f in failing)
                    assert bool(got["failures"]) == breaks or any(case is f for f in other), xm.name
                assert check_level_iso(nsg, xm)["ok"]

    @pytest.mark.parametrize("case", list(_bar_cases()))
    def test_bar(self, case):
        G, H, alpha = _bar_cases()[case]
        depth = max(d for d in range(nerve.DEFAULT_LEVEL_CAP + 1) if G.order * H.order ** (d + 1) <= 2048)
        assert check_bar_multiplication(G, H, alpha, depth) == _reference_check_bar(G, H, alpha, depth)

    @pytest.mark.parametrize("cell", [(0, 1), (5, 7), (17, 3), (9, 9)])
    def test_bar_corrupted(self, z2, z3, monkeypatch, cell):
        # one product of the morphisms changed, at the start of the table,
        # inside and at its end; mor then fails Light's test, and the
        # pair counts must be those of the full scan
        alpha = inversion_action(z2, z3)
        tg = semidirect_two_group(z2, segal_bar_two_group(z3), alpha)
        table = tg.mor.table.copy()
        table[cell] = (table[cell] + 2) % len(table)
        tg.mor = FiniteGroup(table, name=tg.mor.name)
        monkeypatch.setattr(nerve, "semidirect_two_group", lambda *args: tg)
        report = check_bar_multiplication(z2, z3, alpha, 3)
        assert report == _reference_check_bar(z2, z3, alpha, 3, tg)
        assert not report["ok"]

    def test_failing_level_is_scanned_in_row_blocks(self, z2, monkeypatch):
        # a failing bar level of 2 * 3^5 = 486 strings on top is scanned a
        # block of rows at a time: no array holds n^2 cells
        z3 = cyclic_group(3)
        alpha = inversion_action(z2, z3)
        tg = semidirect_two_group(z2, segal_bar_two_group(z3), alpha)
        table = tg.mor.table.copy()
        table[17, 17] = (table[17, 17] + 1) % len(table)
        tg.mor = FiniteGroup(table, name=tg.mor.name)
        monkeypatch.setattr(nerve, "semidirect_two_group", lambda *args: tg)
        want = _reference_check_bar(z2, z3, alpha, 4, tg)
        # the cap on the scan's blocks where first_failure reads it, and on
        # every string product, which refuses a block above it
        import cech2.crossed_modules as cm
        from cech2 import groups

        for module in (nerve, cm, groups):
            monkeypatch.setattr(module, "MAX_LEVEL_ORDER", 4096)
        assert check_bar_multiplication(z2, z3, alpha, 4) == want


    def test_success_paths_scan_no_pair_block(self, library_xmods, monkeypatch):
        # on valid inputs no check falls back to its scan of every pair, and
        # no string product has more right factors than 1 + k generators
        import cech2.crossed_modules as cm

        def no_scan(*args):
            raise AssertionError("a scan of every pair on a success path")

        products = cm.TwoGroup.string_products

        def narrow(tg, x, arrows, digits, radix, right):
            assert len(right[0]) <= 32, "an n x n string product"
            return products(tg, x, arrows, digits, radix, right)

        monkeypatch.setattr(nerve, "first_failure", no_scan)
        monkeypatch.setattr(cm, "first_failure", no_scan)
        monkeypatch.setattr(cm.TwoGroup, "string_products", narrow)
        for xm in library_xmods:
            nsg = nerve_two_group(xm, _deepest(xm))
            assert check_level_iso(nsg, xm)["ok"] and cm.interchange_holds(two_group_from_crossed_module(xm))
        for G, H, alpha in _bar_cases().values():
            assert check_bar_multiplication(G, H, alpha, 3)["ok"]


class TestMutations:
    def test_closure_needs_every_generator(self, monkeypatch):
        # the generators of level 2 without H's last one in slot 1: the
        # closure reaches a subgroup only
        xm = aut_two_group(cyclic_group(3))
        made = nerve.NerveLevel

        def short(xm, p):
            level = made(xm, p)
            if p == 2:
                level.generators = level.generators[:-1]
            return level

        monkeypatch.setattr(nerve, "NerveLevel", short)
        with pytest.raises(CechError, match="level 2: the generators reach 6 of 18 codes"):
            nerve_two_group(xm, 2)

    def test_closure_needs_permutations(self, monkeypatch):
        xm = aut_two_group(cyclic_group(3))
        made = nerve.NerveLevel

        def collapsed(xm, p):
            level = made(xm, p)
            if p == 1:
                level.translations = level.translations.copy()
                level.translations[1, 1] = level.translations[0, 1]
            return level

        monkeypatch.setattr(nerve, "NerveLevel", collapsed)
        with pytest.raises(MissingInverse):
            nerve_two_group(xm, 2)

    @pytest.mark.parametrize("blocks", ["one product", "a product per map"])
    @pytest.mark.parametrize("kind, p, i, code", [("d", 2, 1, 7), ("d", 3, 0, 40), ("d", 3, 3, 40), ("s", 1, 1, 5), ("s", 2, 2, 11)])
    def test_changed_map_is_caught(self, monkeypatch, kind, p, i, code, blocks):
        # one face or degeneracy changed at one code: nerve_two_group names
        # the first failing pair, as validate_hom's scan of all pairs does,
        # also where the cap admits one map per product
        xm = aut_two_group(cyclic_group(3))
        if blocks == "a product per map":
            monkeypatch.setattr(nerve, "MAX_LEVEL_ORDER", 54 * 5)  # the top level's generator columns
        built = nerve._level_homs

        def changed(dom, cod, maps):
            if dom.p == p and (cod.p < p) == (kind == "d"):
                maps = [m.copy() for m in maps]
                maps[i][code] = (maps[i][code] + 1) % cod.order
                m, n = maps[i], dom.order
                table = lambda lv: lv.products(np.arange(lv.order), np.arange(lv.order))
                bad = np.argwhere(m[table(dom)] != table(cod)[np.ix_(m, m)])[0]
                changed.want = tuple(int(v) for v in bad)
            return built(dom, cod, maps)

        monkeypatch.setattr(nerve, "_level_homs", changed)
        with pytest.raises(NotHomomorphism) as exc:
            nerve_two_group(xm, 3)
        assert exc.value.pair == changed.want

    def test_every_map_of_a_small_level(self):
        # all 64 maps from level 1 of aut:Z3 (S3) to level 0 (Z2): the check
        # on generators accepts the homs and names the first bad pair of the
        # full scan for the others
        xm = aut_two_group(cyclic_group(3))
        dom, cod = nerve.NerveLevel(xm, 1), nerve.NerveLevel(xm, 0)
        every = np.arange(dom.order)
        for m in map(np.array, itertools.product(range(cod.order), repeat=dom.order)):
            bad = np.argwhere(m[dom.products(every, every)] != cod.products(m, m))
            if len(bad):
                with pytest.raises(NotHomomorphism) as exc:
                    nerve._level_homs(dom, cod, [m])
                assert exc.value.pair == tuple(int(v) for v in bad[0])
            else:
                assert nerve._level_homs(dom, cod, [m])[0].map.tolist() == m.tolist()

    def test_failing_face_of_a_level_of_7776(self, monkeypatch):
        # aut:S3 at depth 4, with d_4 of level 4 changed at code 5: the scan
        # for the first bad pair reads blocks of rows, never the 7776^2 pairs
        # at once (60M cells, 458 MiB in int64)
        xm = aut_two_group(symmetric_group(3))
        built = nerve._level_homs

        def changed(dom, cod, maps):
            if dom.p == 4 and cod.p == 3:
                maps = [m.copy() for m in maps]
                maps[4][5] = (maps[4][5] + 1) % cod.order
                changed.dom, changed.cod, changed.m = dom, cod, maps[4]
            return built(dom, cod, maps)

        monkeypatch.setattr(nerve, "_level_homs", changed)
        tracemalloc.start()
        try:
            with pytest.raises(NotHomomorphism) as exc:
                nerve_two_group(xm, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x, y = exc.value.pair
        dom, cod, m = changed.dom, changed.cod, changed.m
        ok = lambda rows, cols: m[dom.products(rows, cols)] == cod.products(m[rows], m[cols])
        assert not ok([x], [y]).all() and ok(np.arange(x), np.arange(dom.order)).all() and ok([x], np.arange(y)).all()
        assert peak <= 192 * 2**20


class TestReach:
    def test_aut_s3_depth_4(self):
        # 7776 codes on top with 11 generator columns, refused by the old cap
        # of 2048: the build and both checks within 32 MiB traced, where one
        # n x n array of bools would take 57.7 MiB
        xm = aut_two_group(symmetric_group(3))
        tracemalloc.start()
        try:
            nsg = nerve_two_group(xm, 4)
            ids, iso = check_simplicial_identities(nsg), check_level_iso(nsg, xm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ids["levels"] == [6, 36, 216, 1296, 7776]
        assert ids["ok"] and iso["ok"], ids["failures"] + iso["failures"]
        assert len(nsg.levels[4].generators) == 10 and peak <= 32 * 2**20
