import copy
import tracemalloc

import numpy as np
import pytest

from cech2 import nerve
from cech2.crossed_modules import (
    aut_two_group,
    discrete_two_group,
    hat_construction,
    segal_bar_two_group,
    semidirect_two_group,
    two_group_from_crossed_module,
)
from cech2.errors import BudgetExceeded
from cech2.groups import FiniteGroup, cyclic_group, inversion_action, trivial_action, trivial_group
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
        xm = aut_two_group(s3)
        assert [g.order for g in nerve_two_group(xm, 3).levels] == [6, 36, 216, 1296]

        def no_tables(*args):
            raise AssertionError("a level table was built past the guard")

        monkeypatch.setattr(nerve, "_level_table", no_tables)
        with pytest.raises(BudgetExceeded) as exc:
            nerve_two_group(xm, 4)
        assert (exc.value.required, exc.value.budget) == (7776, MAX_LEVEL_ORDER)


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
                    assert np.array_equal(level.table, _reference_level_table(xm, p)), (xm.name, p)
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

    def test_point_level(self, z2z4, nerve_z2z4):
        # level 0 is just the object group
        assert nerve_z2z4.levels[0].same_table(z2z4.G)

    def test_tampered_product(self, nerve_aut3):
        nsg = copy.copy(nerve_aut3)
        nsg.levels = list(nerve_aut3.levels)
        table = nsg.levels[2].table.copy()
        table[5, 7] = (table[5, 7] + 1) % len(table)
        nsg.levels[2] = FiniteGroup(table)
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


class TestStrings:
    def test_same_strings_as_reference(self, library_xmods):
        tgs = [two_group_from_crossed_module(xm) for xm in library_xmods]
        tgs += [semidirect_two_group(G, segal_bar_two_group(H), a) for G, H, a in _bar_cases().values()]
        for tg in tgs:
            for p in range(4):
                x, arrows = tg.strings(p)
                assert arrows.shape == (len(x), p)
                assert list(zip(x.tolist(), map(tuple, arrows.tolist()))) == _reference_strings(tg, p), (tg.name, p)

    def test_products_refuse_before_any_pair_array(self, z2):
        tg = two_group_from_crossed_module(discrete_two_group(z2))
        x = np.zeros(MAX_LEVEL_ORDER + 1, dtype=np.int64)
        arrows = np.zeros((len(x), 1), dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as exc:
                tg.string_products(x, arrows, np.zeros(tg.mor.order, dtype=np.int64), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.required, exc.value.budget) == (MAX_LEVEL_ORDER + 1, MAX_LEVEL_ORDER)
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
        # Z2 |x bar(Z5) at depth 4 lists 2 * 5^5 = 6250 strings on top
        z5 = cyclic_group(5)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as exc:
                check_bar_multiplication(z2, z5, inversion_action(z2, z5), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.required, exc.value.budget) == (6250, MAX_LEVEL_ORDER)
        assert peak < 2**20
        assert check_bar_multiplication(z2, z5, inversion_action(z2, z5), 3)["ok"]
