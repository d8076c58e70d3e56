import itertools
import json
import operator
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cech2.cohomology import (
    DEFAULT_BUDGET,
    DEFAULT_WITNESS_BUDGET,
    CocycleSequence,
    Cocycle,
    CoboundaryWitness,
    _classify_slice,
    _enumerate_digit_arrays,
    _hom_sizes,
    _Quotient,
    _search,
    _System,
    _system,
    abelian_oracle_h2,
    apply_coboundary,
    classify_h1,
    cocycle_to_json,
    cohomologous_check,
    compose_witnesses,
    enumerate_cocycles,
    holonomy_oracle,
    identity_witness,
    refine_compare,
    trivial_cocycle,
    validate_cocycle,
)
from cech2.complexes import barycentric_subdivide, build_complex, standard_space, standard_space_names
from cech2.crossed_modules import (
    aut_two_group,
    discrete_two_group,
    hat_construction,
    shift_two_group,
    validate_crossed_module,
)
from cech2.errors import (
    BudgetExceeded,
    MoveLeavesCocycles,
    NotAbelian,
    NotACycle,
    TetrahedronViolation,
    TriangleViolation,
)
from cech2.fixtures import coefficient_from_spec
from cech2.groups import (
    conjugacy_classes,
    cyclic_group,
    direct_product,
    inversion_action,
    klein_four_group,
    semidirect_product,
    trivial_action,
    validate_action,
    validate_hom,
)


class TestValidateCocycle:
    def test_trivial_everywhere(self, library_xmods):
        for name in ("point", "circle3", "sphere2", "torus7"):
            cx = standard_space(name)
            for xm in library_xmods:
                assert validate_cocycle(trivial_cocycle(cx, xm), cx, xm)["ok"]

    def test_circle_has_no_constraints(self, circle3, s3):
        xm = discrete_two_group(s3)
        c = Cocycle(g={(0, 1): 4, (0, 2): 2, (1, 2): 5}, h={})
        assert validate_cocycle(c, circle3, xm)["ok"]

    def test_triangle_violation(self, sphere2, z2):
        xm = discrete_two_group(z2)
        c = trivial_cocycle(sphere2, xm)
        c.g[(0, 1)] = 1
        with pytest.raises(TriangleViolation):
            validate_cocycle(c, sphere2, xm)

    def test_values_outside_the_groups(self, circle3, sphere2, z2):
        # neither value is read by a law: circle3 has no triangles, and a
        # negative index would wrap around in t
        c = Cocycle(g={(0, 1): 0, (0, 2): 7, (1, 2): 1}, h={})
        with pytest.raises(ValueError, match="edge value 7"):
            validate_cocycle(c, circle3, discrete_two_group(z2))
        xm = shift_two_group(z2)
        c = trivial_cocycle(sphere2, xm)
        c.h[(0, 1, 2)] = -1
        with pytest.raises(ValueError, match="triangle value -1"):
            validate_cocycle(c, sphere2, xm)

    def test_tetrahedron_violation_on_solid_simplex(self, z2):
        # sphere2 has no tetrahedra, so the second law is vacuous there; the
        # solid 3-simplex carries exactly one instance of it
        cx = standard_space("tetra_solid")
        xm = shift_two_group(z2)
        c = trivial_cocycle(cx, xm)
        c.h[(0, 1, 2)] = 1  # odd number of flipped triangles
        with pytest.raises(TetrahedronViolation):
            validate_cocycle(c, cx, xm)
        c.h[(0, 1, 3)] = 1  # even again
        assert validate_cocycle(c, cx, xm)["ok"]


class TestTrivialCocycle:
    def test_always_valid(self, sphere2, z2z4):
        assert validate_cocycle(trivial_cocycle(sphere2, z2z4), sphere2, z2z4)["ok"]

    def test_is_base_class(self, circle3, sphere2, s3, z2):
        for cx, xm in ((circle3, discrete_two_group(s3)), (sphere2, shift_two_group(z2))):
            cls = classify_h1(cx, xm)
            assert cls.class_of(trivial_cocycle(cx, xm)) == cls.base_class


class TestApplyCoboundary:
    def test_identity_witness(self, sphere2, z2z4):
        for c in enumerate_cocycles(sphere2, z2z4)[::37]:
            assert apply_coboundary(c, identity_witness(sphere2), sphere2, z2z4) == c

    def test_discrete_circle_is_conjugation(self, circle3, s3):
        xm = discrete_two_group(s3)
        c = Cocycle(g={(0, 1): 3, (0, 2): 1, (1, 2): 4}, h={})
        w = CoboundaryWitness(f={0: 2, 1: 5, 2: 1}, k={e: 0 for e in c.g})
        out = apply_coboundary(c, w, circle3, xm)
        for (i, j), v in c.g.items():
            assert out.g[(i, j)] == s3.prod([s3.inv(w.f[i]), v, w.f[j]])

    def test_composite_witness_exhaustive_circle3(self, circle3, z2z4):
        # all witness pairs; the pasting rule for k is what makes this hold
        c = enumerate_cocycles(circle3, z2z4)[17]
        witnesses = [
            CoboundaryWitness(
                f={v: f[v] for v in range(3)},
                k={e: k[i] for i, e in enumerate(sorted(c.g))},
            )
            for f in itertools.product(range(4), repeat=3)
            for k in itertools.product(range(2), repeat=3)
        ]
        for w1 in witnesses:
            mid = apply_coboundary(c, w1, circle3, z2z4)
            for w2 in witnesses:
                lhs = apply_coboundary(mid, w2, circle3, z2z4)
                rhs = apply_coboundary(c, compose_witnesses(w1, w2, circle3, z2z4), circle3, z2z4)
                assert lhs == rhs

    def test_composite_witness_with_triangles(self, sphere2, z2z4):
        cocycles = enumerate_cocycles(sphere2, z2z4)
        c = cocycles[101]
        edges = sorted(c.g)
        picks = [(f1, k1, f2, k2)
                 for f1 in range(256) if f1 % 23 == 0
                 for k1 in range(64) if k1 % 13 == 0
                 for f2 in range(256) if f2 % 31 == 0
                 for k2 in range(64) if k2 % 11 == 0]
        def witness(fi, ki):
            fd = [(fi // 4**v) % 4 for v in range(4)]
            kd = [(ki // 2**e) % 2 for e in range(6)]
            return CoboundaryWitness(
                f={v: fd[v] for v in range(4)}, k={e: kd[i] for i, e in enumerate(edges)}
            )
        for f1, k1, f2, k2 in picks:
            w1, w2 = witness(f1, k1), witness(f2, k2)
            lhs = apply_coboundary(apply_coboundary(c, w1, sphere2, z2z4), w2, sphere2, z2z4)
            rhs = apply_coboundary(c, compose_witnesses(w1, w2, sphere2, z2z4), sphere2, z2z4)
            assert lhs == rhs


class TestSystemCache:
    def test_one_system_per_pair(self, sphere2, z2, z2z4):
        # every public entry point shares the bookkeeping of a pair
        _system.cache_clear()
        c = enumerate_cocycles(sphere2, z2z4)[5]
        w = identity_witness(sphere2)
        for _ in range(3):
            validate_cocycle(apply_coboundary(c, w, sphere2, z2z4), sphere2, z2z4)
        cohomologous_check(c, c, sphere2, z2z4)
        classify_h1(sphere2, z2z4).class_of(c)
        assert _system.cache_info().misses == 1
        # another coefficient object, even an equal one, is another pair
        assert _system(sphere2, shift_two_group(z2)) is not _system(sphere2, shift_two_group(z2))
        assert _system(sphere2, z2z4) is _system(sphere2, z2z4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_validity_closure_property(data):
    """Applying any witness to a valid cocycle yields a valid cocycle."""
    from cech2.fixtures import z2z4_crossed_module

    xm = z2z4_crossed_module()
    cx = standard_space("sphere2")
    cocycles = enumerate_cocycles(cx, xm)
    c = cocycles[data.draw(st.integers(0, len(cocycles) - 1))]
    f = {v: data.draw(st.integers(0, 3)) for v in range(4)}
    k = {e: data.draw(st.integers(0, 1)) for e in sorted(c.g)}
    out = apply_coboundary(c, CoboundaryWitness(f=f, k=k), cx, xm)
    assert validate_cocycle(out, cx, xm)["ok"]


def _invert_witness(w: CoboundaryWitness, xm) -> CoboundaryWitness:
    """The witness that undoes ``w``: f_i^-1 and alpha(f_i^-1)(k_ij^-1)."""
    G, H, alpha = xm.G, xm.H, xm.alpha
    f = {v: G.inv(a) for v, a in w.f.items()}
    k = {e: alpha.apply(f[e[0]], H.inv(kv)) for e, kv in w.k.items()}
    return CoboundaryWitness(f=f, k=k)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_witness_inverse_property(data):
    from cech2.fixtures import z2z4_crossed_module

    xm = z2z4_crossed_module()
    cx = standard_space("sphere2")
    cocycles = enumerate_cocycles(cx, xm)
    c = cocycles[data.draw(st.integers(0, len(cocycles) - 1))]
    f = {v: data.draw(st.integers(0, 3)) for v in range(4)}
    k = {e: data.draw(st.integers(0, 1)) for e in sorted(c.g)}
    w = CoboundaryWitness(f=f, k=k)
    back = _invert_witness(w, xm)
    assert apply_coboundary(apply_coboundary(c, w, cx, xm), back, cx, xm) == c


class TestCanonicalExtension:
    """Stored values live on increasing tuples; the full Cech datum they
    determine must satisfy the triangle law in every vertex ordering."""

    @pytest.mark.parametrize("space", ["circle3", "sphere2"])
    def test_all_orderings_extend(self, space, z2z4):
        cx = standard_space(space)
        G, H, t = z2z4.G, z2z4.H, z2z4.t
        image_t = set(t.image())

        def g_ext(c, a, b):
            if a == b:
                return 0
            return c.g[(a, b)] if a < b else G.inv(c.g[(b, a)])

        for c in enumerate_cocycles(cx, z2z4):
            for tri in cx.simplices_of_dim(2):
                for (a, b, cc) in itertools.permutations(tri):
                    defect = G.mul(g_ext(c, a, cc), G.inv(G.mul(g_ext(c, a, b), g_ext(c, b, cc))))
                    assert defect in image_t


class TestCohomologousCheck:
    def test_self_is_identity(self, circle3, s3):
        xm = discrete_two_group(s3)
        c = enumerate_cocycles(circle3, xm)[5]
        w = cohomologous_check(c, c, circle3, xm)
        assert w is not None and w.is_identity()

    def test_conjugate_holonomy_found_nonconjugate_not(self, circle3, s3):
        xm = discrete_two_group(s3)
        base = {e: 0 for e in circle3.edges}
        transposition = Cocycle(g={**base, (1, 2): 1}, h={})
        other_transposition = Cocycle(g={**base, (1, 2): 2}, h={})
        three_cycle = Cocycle(g={**base, (1, 2): 3}, h={})
        assert cohomologous_check(transposition, other_transposition, circle3, xm) is not None
        assert cohomologous_check(transposition, three_cycle, circle3, xm) is None

    def test_abelian_sphere(self, sphere2, z2):
        xm = shift_two_group(z2)
        cocycles = enumerate_cocycles(sphere2, xm)
        cls = classify_h1(sphere2, xm)
        a, b = cocycles[0], cocycles[3]
        witness = cohomologous_check(a, b, sphere2, xm)
        assert (witness is not None) == (cls.class_of(a) == cls.class_of(b))

    def test_budget(self, circle3, s3):
        xm = discrete_two_group(s3)
        c = trivial_cocycle(circle3, xm)
        with pytest.raises(BudgetExceeded):
            cohomologous_check(c, c, circle3, xm, witness_budget=10)


def _reference_cohomologous_check(
    c: Cocycle,
    c2: Cocycle,
    cx,
    xm,
    witness_budget: int = DEFAULT_WITNESS_BUDGET,
):
    """First witness (f lexicographically major, then k) carrying c to c2.

    Exhaustive over G^V x H^E; returns None when the cocycles are not
    cohomologous.
    """
    sys = _system(cx, xm)
    V, E = cx.vertex_count, len(sys.edges)
    total = xm.G.order**V * xm.H.order**E
    if total > witness_budget:
        raise BudgetExceeded(total, witness_budget)
    gds, hds = sys.cocycle_to_digits(c)
    target = sys.cocycle_to_digits(c2)
    for fds in itertools.product(range(xm.G.order), repeat=V):
        for kds in itertools.product(range(xm.H.order), repeat=E):
            if sys.apply_digits(gds, hds, fds, kds) == target:
                return sys.digits_to_witness(fds, kds)
    return None


def _reference_relation_matrix(
    cx,
    xm,
    budget: int = DEFAULT_BUDGET,
    witness_budget: int = DEFAULT_WITNESS_BUDGET,
):
    """Boolean matrix R[a, b] = "some witness carries cocycle a to cocycle b",
    with the cocycles as ``enumerate_cocycles`` lists them.

    Built by sweeping the full witness group from every cocycle; feasible on
    instances with a few hundred cocycles, where the equivalence-relation
    axioms can be checked directly.
    """
    sys = _system(cx, xm)
    g_mat, h_mat = _enumerate_digit_arrays(sys, budget)
    n = len(g_mat)
    states = [
        (tuple(int(x) for x in g_mat[i]), tuple(int(x) for x in h_mat[i])) for i in range(n)
    ]
    index = {s: i for i, s in enumerate(states)}
    V, E = cx.vertex_count, len(sys.edges)
    total = xm.G.order**V * xm.H.order**E
    if total > witness_budget:
        raise BudgetExceeded(total, witness_budget)
    rel = np.zeros((n, n), dtype=bool)
    witnesses = [
        (fds, kds)
        for fds in itertools.product(range(xm.G.order), repeat=V)
        for kds in itertools.product(range(xm.H.order), repeat=E)
    ]
    for a, (gds, hds) in enumerate(states):
        for fds, kds in witnesses:
            rel[a, index[sys.apply_digits(gds, hds, fds, kds)]] = True
    return rel, CocycleSequence(sys.edges, sys.tris, g_mat, h_mat)


class TestWitnessSweep:
    """The block sweep of ``cohomologous_check`` against the itertools loop
    it replaced."""

    @pytest.mark.parametrize("space,spec,stride", [("circle3", "discrete:S3", 19), ("sphere2", "shift:Z2", 1)])
    def test_same_witness_on_all_pairs(self, space, spec, stride):
        # every ordered pair from every stride-th cocycle: all 46,656 pairs of
        # circle3 discrete:S3 would take about 40 s, and a stride prime to 6
        # lets the 12 sources vary in every digit
        cx, xm = standard_space(space), coefficient_from_spec(spec)
        cocycles = enumerate_cocycles(cx, xm)
        for c in cocycles[::stride]:
            for c2 in cocycles:
                assert cohomologous_check(c, c2, cx, xm) == _reference_cohomologous_check(c, c2, cx, xm)

    @pytest.mark.parametrize(
        "space,spec", [("circle3", "hat:z2z4"), ("circle3", "hat:aut:Z3"), ("circle6", "hat:shift:Z2")]
    )
    def test_same_witness_on_the_benchmark_shapes(self, space, spec):
        # cocycles with random edge values, each paired with a random
        # cohomologous copy and with another random cocycle
        cx, xm = standard_space(space), coefficient_from_spec(spec)
        rng = random.Random(f"{space} {spec}")
        edges = cx.simplices_of_dim(1)
        found = 0
        for _ in range(4):
            c = Cocycle(g={e: rng.randrange(xm.G.order) for e in edges}, h={})
            other = Cocycle(g={e: rng.randrange(xm.G.order) for e in edges}, h={})
            w = CoboundaryWitness(
                f={v: rng.randrange(xm.G.order) for v in cx.vertices}, k={e: rng.randrange(xm.H.order) for e in edges}
            )
            for target in (apply_coboundary(c, w, cx, xm), other):
                got = cohomologous_check(c, target, cx, xm)
                assert got == _reference_cohomologous_check(c, target, cx, xm)
                found += got is not None
        assert found >= 4

    def test_blocks_list_every_witness_in_order(self, circle3, z2z4):
        sys = _System(circle3, z2z4)
        blocks = list(sys.witness_blocks(4**3 * 2**3))
        assert [len(f) for f, _ in blocks] == [64, 128, 256, 64]
        rows = np.concatenate([np.concatenate(block, axis=1) for block in blocks])
        expected = [fds + kds for fds in itertools.product(range(4), repeat=3) for kds in itertools.product(range(2), repeat=3)]
        assert rows.tolist() == [list(row) for row in expected]

    def test_budget_is_checked_before_any_block(self, circle3, s3):
        xm = discrete_two_group(s3)
        sys = _System(circle3, xm)
        with pytest.raises(BudgetExceeded):
            sys.witness_blocks(6**3 - 1)  # raises on the call, not on the first block
        # also before the cocycles are read: this one is not even total
        broken = Cocycle(g={}, h={})
        with pytest.raises(BudgetExceeded):
            cohomologous_check(broken, broken, circle3, xm, witness_budget=10)


class TestAct:
    """``_System.act`` on digit matrices against the scalar ``apply_digits``,
    row for row."""

    @staticmethod
    def _check(sys, g_mat, h_mat, f, k):
        g2, h2 = sys.act(g_mat, h_mat, f, k)
        n = max(len(g_mat), len(f))
        assert g2.shape == (n, len(sys.edges)) and h2.shape == (n, len(sys.tris))
        assert g2.dtype == h2.dtype == np.int64
        for r in range(n):
            args = [m[r if len(m) > 1 else 0].tolist() for m in (g_mat, h_mat, f, k)]
            assert (g2[r].tolist(), h2[r].tolist()) == tuple(map(list, sys.apply_digits(*args)))

    @pytest.mark.parametrize("space", ["point", "circle3", "sphere2", "tetra_solid"])
    def test_equals_apply_digits(self, space, library_xmods):
        cx = standard_space(space)
        rng = np.random.default_rng(len(space))
        for xm in library_xmods:
            sys = _System(cx, xm)
            g_all, h_all = _enumerate_digit_arrays(sys, _candidate_count(sys))
            rows = np.arange(0, len(g_all), max(1, len(g_all) // 60))  # about 60 rows, for the scalar side
            g_mat, h_mat = g_all[rows], h_all[rows]
            # per-row random witnesses
            f = rng.integers(xm.G.order, size=(len(rows), cx.vertex_count))
            k = rng.integers(xm.H.order, size=(len(rows), len(sys.edges)))
            self._check(sys, g_mat, h_mat, f, k)
            # one cocycle under many witnesses
            self._check(sys, g_mat[-1:], h_mat[-1:], f, k)
            # every one-row move witness over those rows
            for move in sys.moves() + sys.slice_moves:
                f, k = sys.move_witness(move)
                assert np.count_nonzero(f) + np.count_nonzero(k) == 1
                self._check(sys, g_mat, h_mat, f, k)
            # the stacked witnesses are the rows of the single ones
            f, k = sys.move_witness(*sys.moves())
            for row, move in enumerate(sys.moves()):
                assert all(np.array_equal(a[row : row + 1], b) for a, b in zip((f, k), sys.move_witness(move)))

    def test_leaves_its_input_alone(self, sphere2, z2z4):
        sys = _System(sphere2, z2z4)
        g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
        g_copy, h_copy = g_mat.copy(), h_mat.copy()
        g2, _ = sys.act(g_mat, h_mat, *sys.move_witness(("v", 1, 1)))
        g2_copy = g2.copy()
        g3, _ = sys.act(g2, h_mat, *sys.move_witness(("v", 2, 1)))
        assert np.array_equal(g_mat, g_copy) and np.array_equal(h_mat, h_copy) and np.array_equal(g2, g2_copy)
        assert not np.array_equal(g2, g3)


class TestResliceDigits:
    """The scalar re-slice, one witness through ``apply_digits``, against the
    vector ``reslice``, row for row."""

    @pytest.mark.parametrize("space", ["point", "circle3", "sphere2", "tetra_solid", "torus7"])
    def test_equals_reslice(self, space, library_xmods):
        cx = standard_space(space)
        rng = np.random.default_rng(len(space))
        for xm in library_xmods:
            sys = _System(cx, xm)
            if _candidate_count(sys) <= 10**5:  # about 60 of all cocycles
                g_all, h_all = _enumerate_digit_arrays(sys, _candidate_count(sys))
                rows = np.arange(0, len(g_all), max(1, len(g_all) // 60))
                g_mat, h_mat = g_all[rows], h_all[rows]
            elif len(sys.kernel_t) ** len(sys.tris) <= 10**4:  # the slice rows
                g_mat, h_mat = _enumerate_digit_arrays(sys, _candidate_count(sys), on_slice=True)
            else:  # with no tetrahedra, g = 1 and any triangle data in ker t make a cocycle
                assert not sys.tets
                g_mat = np.zeros((60, len(sys.edges)), dtype=np.int64)
                h_mat = rng.choice(sys.kernel_t, size=(60, len(sys.tris)))
            # and a random cohomologous copy of each
            f = rng.integers(xm.G.order, size=(len(g_mat), cx.vertex_count))
            k = rng.integers(xm.H.order, size=(len(g_mat), len(sys.edges)))
            g_mat, h_mat = (np.vstack(pair) for pair in zip((g_mat, h_mat), sys.act(g_mat, h_mat, f, k)))
            g2, h2 = sys.reslice(g_mat, h_mat)
            assert (g2 == sys.coset_min[g2]).all() and not g2[:, sys.forest].any()
            assert sys.quotient.allowed[np.arange(len(sys.tris)), h2].all()
            for r in range(len(g_mat)):
                gds, hds = sys.reslice_digits(g_mat[r].tolist(), h_mat[r].tolist())
                assert (list(gds), list(hds)) == (g2[r].tolist(), h2[r].tolist())

    @pytest.mark.parametrize("space", ["circle3", "sphere2", "rp2_6"])
    def test_same_without_the_skip_for_trivial_image(self, space, library_xmods):
        # where t(H) is trivial both re-slices skip the edge witness; the
        # full computation gives the same rows
        cx = standard_space(space)
        rng = np.random.default_rng(len(space))
        skipped = []
        for xm in library_xmods:
            sys = _System(cx, xm)
            assert sys.lift_trivial == (np.count_nonzero(sys.in_image_t) == 1)
            if not sys.lift_trivial:
                continue
            skipped.append(xm.name)
            g_mat = rng.integers(xm.G.order, size=(40, len(sys.edges)))
            h_mat = rng.integers(xm.H.order, size=(40, len(sys.tris)))

            def both():
                rows = [sys.reslice_digits(g.tolist(), h.tolist()) for g, h in zip(g_mat, h_mat)]
                return sys.reslice(g_mat, h_mat), [(list(g), list(h)) for g, h in rows]

            (g2, h2), rows = both()
            sys.lift_trivial = False
            (g3, h3), rows_full = both()
            assert np.array_equal(g2, g3) and np.array_equal(h2, h3) and rows == rows_full
        assert len(skipped) == 7, skipped  # all but z2z4 and aut:S3


class TestKeys:
    """``_System.keys`` against the rows they key: key order is
    ``np.lexsort`` order and keys are equal exactly when rows are, for 1-byte
    and 2-byte digits and with runs of trailing zeros, whose bytes an element
    read from the keys drops."""

    @pytest.mark.parametrize("order,width", [(6, 1), (256, 1), (257, 2)])
    def test_order_and_equality_are_those_of_the_rows(self, sphere2, order, width):
        sys = _System(sphere2, shift_two_group(cyclic_group(order)))
        E, T = len(sys.edges), len(sys.tris)
        rng = np.random.default_rng(order)
        h_mat = rng.integers(order, size=(300, T))
        h_mat[rng.random(300) < 0.3, :] = rng.integers(2, size=T)  # one repeated row of small digits
        for r, zeros in enumerate(rng.integers(T + 1, size=300)):
            h_mat[r, T - zeros :] = 0
        h_mat[:3] = [0] * T, [order - 1] * T, [0] * (T - 1) + [1]
        g_mat = np.zeros((300, E), dtype=np.int64)
        keys = sys.keys(g_mat, h_mat)
        assert keys.shape == (300,) and keys.dtype.itemsize == (E + T + 1) * width
        assert np.argsort(keys, kind="stable").tolist() == np.lexsort(h_mat.T[::-1]).tolist()
        assert np.array_equal(keys[:, None] == keys[None, :], (h_mat[:, None] == h_mat[None, :]).all(axis=2))

    def test_edge_digits_lead(self):
        sys = _System(standard_space("circle3"), discrete_two_group(cyclic_group(300)))
        g_mat = np.random.default_rng(7).integers(300, size=(200, 3))
        g_mat[::4, 1:] = 0
        keys = sys.keys(g_mat, np.zeros((200, 0), dtype=np.int64))
        assert np.argsort(keys, kind="stable").tolist() == np.lexsort(g_mat.T[::-1]).tolist()

    def test_point_has_one_key(self, library_xmods):
        # the point has no edges and no triangles: its one row still has a key
        for xm in library_xmods:
            sys = _System(standard_space("point"), xm)
            g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
            assert g_mat.shape == (1, 0) and h_mat.shape == (1, 0)
            keys = sys.keys(g_mat, h_mat)
            assert len(np.unique(keys)) == 1 and _search(keys, keys)[1].all()
            assert classify_h1(sys.cx, xm).class_of(trivial_cocycle(sys.cx, xm)) == 0

    def test_trivial_cocycle_has_the_all_zero_key(self, library_xmods):
        # its key reads as b"" element by element, yet is found as an array
        for xm in library_xmods:
            cx = standard_space("sphere2")
            sys, cls = _System(cx, xm), classify_h1(cx, xm)
            g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET, on_slice=True)
            keys = sys.keys(g_mat, h_mat)
            index, found = _search(keys, sys.keys(np.zeros_like(g_mat[:1]), np.zeros_like(h_mat[:1])))
            assert keys[0] == b"" and index.tolist() == [0] and found.tolist() == [True]
            assert cls.class_of(trivial_cocycle(cx, xm)) == cls.base_class

    def test_two_byte_digits_classify_by_holonomy(self, circle3):
        # Z257 needs 2-byte digits: with little-endian keys the moves would
        # not find their rows (MoveLeavesCocycles)
        xm = discrete_two_group(cyclic_group(257))
        cls = classify_h1(circle3, xm)
        assert cls.class_count == 257 and cls.sizes() == [257**2] * 257

        def holonomy(c):  # the oracle's walk 0, 1, 2, 0 in the abelian Z257
            return (c.g[(0, 1)] + c.g[(1, 2)] - c.g[(0, 2)]) % 257

        assert sorted(map(holonomy, cls.representatives)) == list(range(257))
        rng = random.Random(257)
        for _ in range(300):
            c = Cocycle(g={e: rng.randrange(257) for e in circle3.edges}, h={})
            assert holonomy(cls.representatives[cls.class_of(c)]) == holonomy(c)
            assert holonomy_oracle(circle3, c, xm) == holonomy(c)


class TestEnumerateCocycles:
    def test_circle3_discrete_z2(self, circle3, z2):
        assert len(enumerate_cocycles(circle3, discrete_two_group(z2))) == 8

    def test_sphere2_shift_z2_all_assignments_valid(self, sphere2, z2):
        # no tetrahedra on the boundary sphere, so all 2^4 triangle data pass
        assert len(enumerate_cocycles(sphere2, shift_two_group(z2))) == 16

    def test_solid_tetra_shift_z2_filters(self, z2):
        cx = standard_space("tetra_solid")
        cocycles = enumerate_cocycles(cx, shift_two_group(z2))
        assert len(cocycles) == 8  # kernel of the mod-2 law on 2^4 assignments

    def test_point(self, library_xmods):
        cx = standard_space("point")
        for xm in library_xmods:
            assert enumerate_cocycles(cx, xm) == [trivial_cocycle(cx, xm)]

    def test_lexicographic_and_deterministic(self, circle3, z4):
        xm = discrete_two_group(z4)
        first = enumerate_cocycles(circle3, xm)
        second = enumerate_cocycles(circle3, xm)
        assert first == second
        digits = [tuple(c.g[e] for e in circle3.edges) for c in first]
        assert digits == sorted(digits)

    def test_budget(self, sphere2, s3):
        with pytest.raises(BudgetExceeded):
            enumerate_cocycles(sphere2, discrete_two_group(s3), budget=1000)

    def test_read_only_sequence(self, circle3, z4):
        xm = discrete_two_group(z4)
        sys = _System(circle3, xm)
        g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
        listed = [sys.digits_to_cocycle(g, h) for g, h in zip(g_mat, h_mat)]
        cocycles = enumerate_cocycles(circle3, xm)
        assert len(cocycles) == len(listed) == 64
        assert list(cocycles) == listed and cocycles == listed and listed == cocycles
        assert cocycles[-1] == listed[-1] and cocycles[np.int64(5)] == listed[5]
        assert cocycles[3:-7:5] == listed[3:-7:5] and cocycles[::-9] == listed[::-9]
        assert cocycles != listed[:-1] and cocycles != listed[::-1]
        for i in (64, -65):
            with pytest.raises(IndexError):
                cocycles[i]
        # every access builds a fresh Cocycle
        cocycles[7].g[(0, 1)] = 3
        assert cocycles[7] == listed[7]
        assert type(cocycles[7].g[(0, 1)]) is int

    def test_sparse_instance_stays_small(self, z3):
        # 3^15 candidates, of which 243 are cocycles: the enumerator must not
        # hold all edge assignments at once (numpy allocations are traced)
        cx, xm = standard_space("rp2_6"), discrete_two_group(z3)
        tracemalloc.start()
        try:
            cocycles = enumerate_cocycles(cx, xm, budget=3**15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cocycles) == 243
        assert peak < 64 * 2**20
        # Hom(Z2, Z3) is trivial, so every cocycle is a coboundary
        assert classify_h1(cx, xm, budget=3**15).class_count == 1


class TestClassifyH1:
    @pytest.mark.parametrize("group,count", [("z2", 2), ("z4", 4), ("s3", 3)])
    def test_circle3_discrete(self, group, count, circle3, z2, z4, s3):
        g = {"z2": z2, "z4": z4, "s3": s3}[group]
        cls = classify_h1(circle3, discrete_two_group(g))
        assert cls.class_count == count == len(conjugacy_classes(g))

    def test_sphere2_shift_z2(self, sphere2, z2):
        cls = classify_h1(sphere2, shift_two_group(z2))
        assert cls.class_count == 2
        assert cls.sizes() == [8, 8]

    def test_circle6_discrete_counts_conjugacy_classes(self, s3, z2):
        cx = standard_space("circle6")
        assert classify_h1(cx, discrete_two_group(s3)).class_count == 3
        assert classify_h1(cx, discrete_two_group(z2)).class_count == 2

    def test_classes_partition(self, circle3, s3):
        xm = discrete_two_group(s3)
        cls = classify_h1(circle3, xm)
        classes = _members(cls, *_enumerate_digit_arrays(_System(circle3, xm), DEFAULT_BUDGET))
        ids = np.concatenate(classes)
        assert sorted(ids.tolist()) == list(range(cls.num_cocycles))
        assert cls.sizes() == [len(ids) for ids in classes]

    def test_budget_refused_before_the_quotient(self):
        # sd(sd(torus7)) has 504 triangles: the quotient's deltas alone would
        # be a 756 x 504 matrix, and its chain a long sift
        cx = barycentric_subdivide(barycentric_subdivide(standard_space("torus7")))
        xm = coefficient_from_spec("shift:Z2")
        with pytest.raises(BudgetExceeded):
            classify_h1(cx, xm)
        sys = _system(cx, xm)
        assert len(sys.tris) == 504 and "quotient" not in vars(sys) and not sys._plans

    def test_representative_is_minimum(self, sphere2, z2z4):
        cls = classify_h1(sphere2, z2z4)
        sys = _System(sphere2, z2z4)
        g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
        for i, (ids, rep) in enumerate(zip(_members(cls, g_mat, h_mat), cls.representatives)):
            assert int(ids[0]) == min(int(x) for x in ids)
            assert rep == sys.digits_to_cocycle(g_mat[ids[0]], h_mat[ids[0]])
            assert cls.class_of(rep) == i


def _candidate_count(sys: _System) -> int:
    """|G|^E |ker t|^T: the rows an enumeration of all cocycles may visit, and
    the budget ``enumerate_cocycles`` needs."""
    return sys.G.order ** len(sys.edges) * len(sys.kernel_t) ** len(sys.tris)


def _encode(mat: np.ndarray, weights: list[int]) -> np.ndarray:
    """Weighted digit sums of the rows, as int64."""
    return mat.astype(np.int64, copy=False) @ np.array(weights, dtype=np.int64)


def _lex_weights(sys: _System) -> tuple[list[int], list[int]]:
    """The weights of the g and the h digits in a row's rank over all of
    G^E x H^T, in lexicographic order."""
    E, T = len(sys.edges), len(sys.tris)
    h_weights = [sys.H.order ** (T - 1 - col) for col in range(T)]
    return [sys.G.order ** (E - 1 - col) * sys.H.order**T for col in range(E)], h_weights


def _members(cls, g_mat, h_mat) -> list[np.ndarray]:
    """The rows of each class, by label, found with ``labels_of``."""
    labels = cls.labels_of(g_mat, h_mat)
    return [np.flatnonzero(labels == i) for i in range(cls.class_count)]


def _reference_compile_move(sys, move):
    """Closure applying one elementary move to (g digits, h digits)."""
    G, H, alpha, t = sys.G, sys.H, sys.xm.alpha, sys.xm.t
    kind, pos, val = move
    if kind == "v":
        ainv = G.inv(val)
        left = [e for e, (i, j) in enumerate(sys.edges) if i == pos]
        right = [e for e, (i, j) in enumerate(sys.edges) if j == pos]
        tris_at = [ti for ti, (i, j, k) in enumerate(sys.tris) if i == pos]

        def act(gds, hds):
            g2 = list(gds)
            for e in left:
                g2[e] = G.mul(ainv, g2[e])
            for e in right:
                g2[e] = G.mul(g2[e], val)
            if tris_at:
                h2 = list(hds)
                for ti in tris_at:
                    h2[ti] = alpha.apply(ainv, h2[ti])
                return tuple(g2), tuple(h2)
            return tuple(g2), hds

    else:
        tk = t(val)
        kinv = H.inv(val)
        roles = []  # (triangle, which slot carries this edge, ij-edge index)
        for ti, (e_ij, e_jk, e_ik) in enumerate(sys.tri_edges):
            if e_ik == pos:
                roles.append((ti, "ik", e_ij))
            elif e_jk == pos:
                roles.append((ti, "jk", e_ij))
            elif e_ij == pos:
                roles.append((ti, "ij", e_ij))

        def act(gds, hds):
            g2 = list(gds)
            h2 = list(hds)
            for ti, role, e_ij in roles:
                if role == "ik":
                    h2[ti] = H.mul(val, h2[ti])
                elif role == "jk":
                    h2[ti] = H.mul(h2[ti], H.inv(alpha.apply(gds[e_ij], val)))
                else:
                    h2[ti] = H.mul(h2[ti], kinv)
            g2[pos] = G.mul(tk, g2[pos])
            return tuple(g2), tuple(h2)

    return act


def _reference_move_columns(sys, move, g_mat, h_mat):
    """``_reference_compile_move`` over whole digit matrices: the g and h
    columns the move changes, as {column: new values}."""
    G, H, alpha = sys.G, sys.H, sys.xm.alpha
    kind, pos, val = move
    g_new, h_new = {}, {}
    if kind == "v":
        ainv = G.inv(val)
        for e, (i, j) in enumerate(sys.edges):
            if i == pos:
                g_new[e] = G.table[ainv, g_mat[:, e]]
            elif j == pos:
                g_new[e] = G.table[g_mat[:, e], val]
        for ti, (i, _, _) in enumerate(sys.tris):
            if i == pos:
                h_new[ti] = alpha.perms[ainv, h_mat[:, ti]]
    else:
        for ti, (e_ij, e_jk, e_ik) in enumerate(sys.tri_edges):
            if e_ik == pos:
                h_new[ti] = H.table[val, h_mat[:, ti]]
            elif e_jk == pos:
                h_new[ti] = H.table[h_mat[:, ti], H.inverse[alpha.perms[g_mat[:, e_ij], val]]]
            elif e_ij == pos:
                h_new[ti] = H.table[h_mat[:, ti], H.inv(val)]
        g_new[pos] = G.table[sys.xm.t(val), g_mat[:, pos]]
    return g_new, h_new


def _walk_orbits(sys, g_mat, h_mat):
    """Reference classification: the plain dictionary walker, closing each
    unlabelled cocycle under the scalar elementary moves in Python.

    Returns (classes, representatives, base_class, labels) in the layout of
    ``Classification``, with labels indexed by enumeration order.
    """
    states = [
        (tuple(int(x) for x in g_mat[i]), tuple(int(x) for x in h_mat[i]))
        for i in range(len(g_mat))
    ]
    index = {s: i for i, s in enumerate(states)}
    acts = [_reference_compile_move(sys, m) for m in sys.moves()]
    labels = [-1] * len(states)
    classes: list[list[int]] = []
    for seed in range(len(states)):
        if labels[seed] >= 0:
            continue
        label = len(classes)
        labels[seed] = label
        frontier = [states[seed]]
        members = [seed]
        while frontier:
            nxt = []
            for st in frontier:
                for act in acts:
                    other = act(*st)
                    oid = index[other]
                    if labels[oid] < 0:
                        labels[oid] = label
                        members.append(oid)
                        nxt.append(other)
            frontier = nxt
        classes.append(sorted(members))
    trivial_id = index[(tuple([0] * g_mat.shape[1]), tuple([0] * h_mat.shape[1]))]
    reps = [sys.digits_to_cocycle(g_mat[c[0]], h_mat[c[0]]) for c in classes]
    return classes, reps, labels[trivial_id], labels


class TestClassifyAgainstReferenceWalker:
    # rp2_6 shift:Z2 and sphere2 shift:K4 (H not cyclic) are one slice row
    # per class, all of ker t central; the others are classified on the
    # slice without triangles, with triangles, and with a tetrahedron
    @pytest.mark.parametrize(
        "space,spec",
        [
            ("rp2_6", "shift:Z2"),
            ("sphere2", "shift:K4"),
            ("circle6", "discrete:Z4"),
            ("sphere2", "hat:z2z4"),
            ("tetra_solid", "hat:aut:Z3"),
        ],
    )
    def test_same_classification(self, space, spec):
        cx, xm = standard_space(space), coefficient_from_spec(spec)
        cls = classify_h1(cx, xm)
        sys = _System(cx, xm)
        g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
        classes, reps, base_class, labels = _walk_orbits(sys, g_mat, h_mat)
        assert [c.tolist() for c in _members(cls, g_mat, h_mat)] == classes
        assert cls.sizes() == [len(c) for c in classes]
        assert cls.representatives == reps
        assert cls.base_class == base_class
        assert cls.num_cocycles == len(labels)
        cocycles = [sys.digits_to_cocycle(g, h) for g, h in zip(g_mat, h_mat)]
        assert [cls.class_of(c) for c in cocycles] == labels
        assert cls.labels_of(g_mat, h_mat).tolist() == labels
        assert cls.labels_of(g_mat[::-3], h_mat[::-3]).tolist() == labels[::-3]

    def test_raises_when_a_move_leaves_the_cocycles(self):
        # drop one slice row of a class with several: a re-sliced move from
        # another row of that class now lands outside
        cx, xm = standard_space("circle6"), coefficient_from_spec("discrete:S3")
        sys = _System(cx, xm)
        g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET, on_slice=True)
        labels = classify_h1(cx, xm).labels_of(g_mat, h_mat)
        assert len(g_mat) == 6 and np.bincount(labels).tolist() == [1, 3, 2]
        keep = np.arange(len(g_mat)) != np.flatnonzero(labels == 1)[1]
        with pytest.raises(MoveLeavesCocycles):
            _classify_slice(sys, g_mat[keep], h_mat[keep])


def _reference_classify_orbits(sys: _System, g_mat: np.ndarray, h_mat: np.ndarray) -> "_ReferenceClassification":
    """Orbits of the enumerated cocycles (rows in rank order) under the
    elementary moves.

    Each move is applied to whole digit columns and shifts the rank of every
    row by the weighted change of the columns it touches; the moved rows are
    found by searchsorted over the sorted ranks.  Classes are then the
    components of the move graph, by min-label propagation with pointer
    jumping (Tarjan, JACM 1975).
    """
    rank_space = sys.G.order ** len(sys.edges) * sys.H.order ** len(sys.tris)
    if rank_space > np.iinfo(np.int64).max:
        raise BudgetExceeded(rank_space, int(np.iinfo(np.int64).max))
    gw, hw = _lex_weights(sys)
    ranks = _encode(g_mat, gw) + _encode(h_mat, hw)
    n = len(ranks)

    neighbours = []
    for move in sys.moves():
        moved = ranks.copy()
        for mat, new, weights in zip((g_mat, h_mat), _reference_move_columns(sys, move, g_mat, h_mat), (gw, hw)):
            for col, values in new.items():
                moved += (values - mat[:, col]) * weights[col]
        nbr = np.minimum(np.searchsorted(ranks, moved), n - 1)
        left = np.flatnonzero(ranks[nbr] != moved)
        if len(left):
            raise MoveLeavesCocycles(move, sys.digits_to_cocycle(g_mat[left[0]], h_mat[left[0]]))
        neighbours.append(nbr)

    # every move permutes the finite set, so the least label reachable along
    # moves is the least label of the orbit
    labels = np.arange(n, dtype=np.int64)
    while True:
        before = labels
        for nbr in neighbours:
            labels = np.minimum(labels, labels[nbr])
        labels = labels[labels]
        if np.array_equal(labels, before):
            break

    roots, labels = np.unique(labels, return_inverse=True)
    reps = [sys.digits_to_cocycle(g_mat[r], h_mat[r]) for r in roots]
    return _ReferenceClassification(sys, reps, np.bincount(labels).tolist(), ranks, labels)


class _ReferenceClassification:
    """The reference's classes, with ``Classification``'s report and its
    lookups: a row's rank over all of G^E x H^T is looked up among the
    sorted ranks of the classified cocycles."""

    def __init__(self, sys: _System, reps, sizes, ranks: np.ndarray, labels: np.ndarray):
        self.sys, self.ranks, self._labels = sys, ranks, labels
        self.num_cocycles = len(ranks)
        self.weights = _lex_weights(sys)
        self.report = {
            "classes": len(reps),
            "sizes": sizes,
            "base_class": int(labels[0]),  # row 0 is the trivial cocycle, rank 0
            "representatives": [cocycle_to_json(r) for r in reps],
        }

    def to_report(self) -> dict:
        return self.report

    def labels_of(self, g_mat: np.ndarray, h_mat: np.ndarray) -> np.ndarray:
        ranks = _encode(g_mat, self.weights[0]) + _encode(h_mat, self.weights[1])
        index = np.minimum(self.ranks.searchsorted(ranks), len(self.ranks) - 1)
        if (self.ranks[index] != ranks).any():
            raise ValueError("not a valid cocycle of this classification")
        return self._labels[index]

    def class_of(self, c: Cocycle) -> int:
        gds, hds = self.sys.cocycle_to_digits(c)
        rank = sum(map(operator.mul, gds + hds, self.weights[0] + self.weights[1]))
        index = int(self.ranks.searchsorted(rank))
        if index == len(self.ranks) or self.ranks[index] != rank:
            raise ValueError("not a valid cocycle of this classification")
        return int(self._labels[index])


_SLICE_SPECS = [
    f"{kind}:{group}"
    for kind in ("discrete", "shift", "aut")
    for group in ("Z2", "Z3", "Z4", "S3", "K4")
    if (kind, group) != ("shift", "S3")  # a shift 2-group needs abelian H
] + ["z2z4"]
_SLICE_SPECS += [f"hat:{spec}" for spec in _SLICE_SPECS]


def _space(name: str):
    """A stock space, or the barycentric subdivision ``sd(name)`` of one."""
    if name.startswith("sd("):
        return barycentric_subdivide(standard_space(name[3:-1]))
    return standard_space(name)


def _slice_cases():
    spaces = {name: _space(name) for name in standard_space_names() + ["sd(circle3)", "sd(point)"]}
    cases = []
    for spec in _SLICE_SPECS:
        xm = coefficient_from_spec(spec)
        for name, cx in spaces.items():
            sys = _System(cx, xm)
            if _candidate_count(sys) <= DEFAULT_BUDGET:
                cases.append((name, spec))
    return cases


class TestSliceAgainstFullClosure:
    """The slice classifier against the full closure of every cocycle:
    report bytes, cocycle count, the label of every cocycle and class_of."""

    @pytest.mark.parametrize("space,spec", _slice_cases())
    def test_same_classification(self, space, spec):
        cx, xm = _space(space), coefficient_from_spec(spec)
        cls = classify_h1(cx, xm)
        sys = _System(cx, xm)
        g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
        ref = _reference_classify_orbits(sys, g_mat, h_mat)
        assert json.dumps(cls.to_report(), sort_keys=True) == json.dumps(ref.to_report(), sort_keys=True)
        assert cls.num_cocycles == ref.num_cocycles == len(g_mat)
        assert np.array_equal(cls.labels_of(g_mat, h_mat), ref.labels_of(g_mat, h_mat))
        for i in range(0, len(g_mat), max(1, len(g_mat) // 40)):
            c = sys.digits_to_cocycle(g_mat[i], h_mat[i])
            assert cls.class_of(c) == ref.class_of(c)
        assert cls.stats["slice_rows"] * cls.stats["fibre"] == cls.num_cocycles

    def test_cases(self):
        cases = _slice_cases()
        assert len(cases) == 239
        assert {spec for _, spec in cases} == set(_SLICE_SPECS)
        # the mutants that drop the root moves or the ker t moves each break
        # some of these; the shift cases have trivial G and all of ker t central
        assert ("circle3", "discrete:S3") in cases and ("sphere2", "aut:Z3") in cases
        assert ("torus7", "shift:Z2") in cases and ("rp2_6", "shift:Z3") in cases


def _d4():
    """The dihedral group of order 8 as Z4 x| Z2, Z2 acting by inversion."""
    z2, z4 = cyclic_group(2), cyclic_group(4)
    return semidirect_product(z2, z4, inversion_action(z2, z4))


class TestSliceReach:
    """Instances the full closure could not afford: the slice lists a few
    rows, each standing for a large fibre of cocycles.  Ranks over the
    values the masks admit, and the quotient by the edge moves valued in
    K^G, bring in instances the parent refused."""

    @pytest.mark.parametrize(
        "space,spec,budget,classes,cocycles",
        [
            ("torus7", "discrete:S3", 6**21, 8, 18 * 6**6),  # commuting pairs up to conjugacy
            ("rp2_6", "discrete:S3", 6**15, 2, 31_104),
            ("torus7", "z2z4", 4**21, 4, 2**29),
        ],
    )
    def test_classifies_within_a_second_and_16_mib(self, space, spec, budget, classes, cocycles):
        cx, xm = standard_space(space), coefficient_from_spec(spec)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            cls = classify_h1(cx, xm, budget=budget)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 16 * 2**20
        assert cls.class_count == classes and cls.num_cocycles == cocycles == sum(cls.sizes())
        assert all(type(size) is int for size in cls.sizes())
        _check_class_of(cx, xm, cls)

    @pytest.mark.parametrize(
        "space,spec,budget,classes",
        [
            ("torus7", "hat:z2z4", 2**63, 16),  # |Hom(Z^2, Z4)|; ranks over G^E x H^T would need 2^77
            ("sd(sphere2)", "z2z4", 4**36, 1),  # the same, one slice row for about 5.6e14 cocycles
            ("sd(tetra_solid)", "shift:Z2", 2**60, 1),  # one slice row for 2^36 cocycles
            ("rp2_6", "aut:Z4", 2**35, 5),  # K^G = {0, 2}, a twisted ker t = Z4
        ],
    )
    def test_reach_of_the_central_quotient(self, space, spec, budget, classes):
        cx, xm = _space(space), coefficient_from_spec(spec)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            cls = classify_h1(cx, xm, budget=budget)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 16 * 2**20
        assert cls.class_count == classes and cls.num_cocycles == sum(cls.sizes())
        # the homotopy cardinality |Z^1| |H|^V / (|G|^V |H|^E) (Yetter, J. Knot
        # Theory Ramif. 2, 1993), a homotopy invariant: |H|/|G| on the contractible sd(tetra_solid), and 1/2 on
        # sd(sphere2) as on sphere2 itself (test_homotopy_cardinality)
        V, E = cx.vertex_count, len(cx.simplices_of_dim(1))
        chi = {"torus7": (4, 1), "sd(sphere2)": (1, 2), "sd(tetra_solid)": (2, 1), "rp2_6": (4, 1)}[space]
        assert cls.num_cocycles * xm.H.order**V * chi[1] == chi[0] * xm.G.order**V * xm.H.order**E
        if xm.G.order == 1:
            assert cls.class_count == abelian_oracle_h2(cx, xm.H)
        if spec == "aut:Z4":
            # classes with trivial holonomy have a representative with g = 1:
            # H^2(RP^2; Z4) = Z2, on which the inversion acts trivially; the
            # other three are H^2(RP^2; Z4 twisted) = Z4 up to sign
            trivial = sum(not any(rep.g.values()) for rep in cls.representatives)
            assert trivial == abelian_oracle_h2(cx, xm.H) == 2
        _check_class_of(cx, xm, cls)

    def test_homotopy_cardinality(self):
        # |Z^1| |H|^V / (|G|^V |H|^E) with z2z4: 2 on torus7, 1/2 on sphere2
        xm = coefficient_from_spec("z2z4")
        for space, budget, (num, den), classes in [("torus7", 4**21, (2, 1), None), ("sphere2", DEFAULT_BUDGET, (1, 2), 1)]:
            cx = standard_space(space)
            cls = classify_h1(cx, xm, budget=budget)
            V, E = cx.vertex_count, len(cx.simplices_of_dim(1))
            assert classes is None or cls.class_count == classes
            assert den * cls.num_cocycles * xm.H.order**V == num * xm.G.order**V * xm.H.order**E

    @pytest.mark.parametrize("space,classes,cocycles", [("sphere2", 2, 524_288), ("tetra_solid", 1, None)])
    def test_nonabelian_h_with_central_kernel(self, space, classes, cocycles):
        # aut:D4: t is D4 -> Inn(D4) in Aut(D4), its kernel the centre of D4
        cx, xm = standard_space(space), aut_two_group(_d4())
        assert len(xm.t.kernel()) == 2 and not xm.H.is_abelian()
        cls = classify_h1(cx, xm, budget=_candidate_count(_System(cx, xm)))
        assert cls.class_count == classes
        assert cocycles is None or cls.num_cocycles == cocycles
        _check_class_of(cx, xm, cls)


class TestOneBound:
    """The budget bounds the rows enumerated, each triangle taking at most
    the |ker t| values of a t-fibre: on the slice |G/t(H)|^(E-F) |ker t|^T,
    F the forest edges, which never exceeds the |G|^E |ker t|^T of all
    cocycles."""

    def test_slice_bound_never_exceeds_all_cocycles(self):
        spaces = standard_space_names() + [f"sd({name})" for name in standard_space_names()]
        pairs = 0
        for spec in _SLICE_SPECS:
            xm = coefficient_from_spec(spec)
            kernel = len(xm.t.kernel())
            for name in spaces:
                cx = _space(name)
                # refused before any row is built, with the bound as the work required
                with pytest.raises(BudgetExceeded) as exc:
                    classify_h1(cx, xm, budget=0)
                E, T = len(cx.simplices_of_dim(1)), len(cx.simplices_of_dim(2))
                forest = len({j for _, j in cx.simplices_of_dim(1)})
                cosets = xm.G.order * kernel // xm.H.order
                assert exc.value.required == cosets ** (E - forest) * kernel**T <= _candidate_count(_System(cx, xm))
                pairs += 1
        assert pairs == 480

    @pytest.mark.parametrize(
        "space,spec,classes",
        [
            ("torus7", "discrete:Z2", 4),  # |Hom(Z^2, Z2)|, bound 2^15
            ("rp2_6", "z2z4", 2),
            ("torus7", "z2z4", 4),  # bound 2^15; all cocycles 4^21
            ("sd(tetra_solid)", "aut:S3", 1),  # bound 1; all cocycles 6^50
        ],
    )
    def test_reach_at_the_default_budget(self, space, spec, classes):
        cx, xm = _space(space), coefficient_from_spec(spec)
        assert _candidate_count(_System(cx, xm)) > DEFAULT_BUDGET
        cls = classify_h1(cx, xm)
        assert cls.class_count == classes
        _check_class_of(cx, xm, cls)

    @pytest.mark.parametrize("space,spec,bound", [("torus7", "shift:Z3", 3**14), ("rp2_6", "discrete:S3", 6**10)])
    def test_refusal_reports_the_bound(self, space, spec, bound):
        with pytest.raises(BudgetExceeded) as exc:
            classify_h1(standard_space(space), coefficient_from_spec(spec))
        assert (exc.value.required, exc.value.budget) == (bound, DEFAULT_BUDGET)

    def test_refused_just_below_the_bound(self):
        # sd(torus7) has 126 edges and 41 forest edges, so discrete:S3 needs
        # a budget of 6^85, far beyond int64
        cx, xm = _space("sd(torus7)"), coefficient_from_spec("discrete:S3")
        bound = 6**85
        with pytest.raises(BudgetExceeded) as exc:
            classify_h1(cx, xm, budget=bound - 1)
        assert (exc.value.required, exc.value.budget) == (bound, bound - 1)

    @pytest.mark.parametrize("space,spec", [("torus7", "discrete:Z2"), ("torus7", "z2z4"), ("rp2_6", "discrete:S3")])
    def test_subdivision_beyond_int64_keeps_the_classes(self, space, spec):
        # sd(M) at the budget its bound asks, beyond any int64 rank, and M
        # itself give the same number of classes
        xm, counts = coefficient_from_spec(spec), []
        for cx in (standard_space(space), _space(f"sd({space})")):
            with pytest.raises(BudgetExceeded) as exc:
                classify_h1(cx, xm, budget=0)
            counts.append(classify_h1(cx, xm, budget=exc.value.required).class_count)
        assert exc.value.required > 2**63 and counts[0] == counts[1]

    def test_a_broken_row_is_not_found(self, sphere2, z2z4):
        # every t-fibre of z2z4 is one element, so ranks do not read the
        # triangle data: only comparing the whole row tells a row with one
        # flipped triangle from the cocycle it was made from
        assert len(z2z4.t.kernel()) == 1
        cls = classify_h1(sphere2, z2z4)
        sys = _System(sphere2, z2z4)
        g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
        for r in range(0, len(g_mat), 5):
            h = h_mat[r : r + 1].copy()
            h[0, r % len(sys.tris)] ^= 1
            with pytest.raises(ValueError):
                cls.labels_of(g_mat[r : r + 1], h)
            with pytest.raises(ValueError):
                cls.class_of(sys.digits_to_cocycle(g_mat[r], h[0]))


def _check_class_of(cx, xm, cls, copies=4):
    """class_of sends each representative and random cohomologous copies of
    it to its own label."""
    rng = random.Random(f"{cx.name} {xm.name}")
    for i, rep in enumerate(cls.representatives):
        assert cls.class_of(rep) == i
        for _ in range(copies):
            w = CoboundaryWitness(
                f={v: rng.randrange(xm.G.order) for v in cx.vertices},
                k={e: rng.randrange(xm.H.order) for e in cx.simplices_of_dim(1)},
            )
            assert cls.class_of(apply_coboundary(rep, w, cx, xm)) == i


class TestClassificationStats:
    def test_slice_path(self):
        cx, xm = standard_space("circle6"), coefficient_from_spec("discrete:S3")
        cls = classify_h1(cx, xm)
        sys = _system(cx, xm)
        assert cls.stats == {
            "slice_rows": 6,
            "fibre": 6**5,
            "roots": 1,
            "moves": len(sys.slice_moves),
            "closure_rounds": cls.stats["closure_rounds"],
        }
        assert cls.stats["moves"] == 2 and cls.stats["closure_rounds"] >= 2
        assert cls.stats["slice_rows"] * cls.stats["fibre"] == cls.num_cocycles

    def test_central_kernel_quotient(self, sphere2, z2):
        # trivial G, all of H = ker t central: one slice row per class, each
        # standing for a coset of S, and no moves left to close
        cls = classify_h1(sphere2, shift_two_group(z2))
        assert cls.stats == {"slice_rows": 2, "fibre": 8, "roots": 1, "moves": 0, "closure_rounds": 1}

    def test_roots(self, s3):
        # one root per component: a circle and two isolated points
        cx, xm = build_complex(5, [(0, 1), (1, 2), (0, 2), (3,), (4,)]), discrete_two_group(s3)
        assert classify_h1(cx, xm).stats["roots"] == len(_system(cx, xm).roots) == 3
        assert classify_h1(standard_space("sphere2"), xm).stats["roots"] == 1

    def test_not_in_the_report(self, circle3, s3):
        cls = classify_h1(circle3, discrete_two_group(s3))
        assert set(cls.to_report()) == {"classes", "sizes", "base_class", "representatives"}


def _reference_classify_cosets(sys: _System, budget: int):
    """Reference coset classification: the subgroup S the move deltas
    generate, closed state by state over all of H^T, and its cosets labelled
    by scanning for the least unlabelled state.

    Returns (classes, representatives, base_class, labels), with labels
    indexed by state rank.
    """
    H = sys.H
    T = len(sys.tris)
    n = H.order**T
    if n > budget:
        raise BudgetExceeded(n, budget)
    _, hw = _lex_weights(sys)
    table = H.table.astype(np.min_scalar_type(H.order - 1))

    def decode(x: int) -> np.ndarray:
        digits = np.empty(T, dtype=table.dtype)
        for pos in range(T - 1, -1, -1):
            x, r = divmod(x, H.order)
            digits[pos] = r
        return digits

    acts = [_reference_compile_move(sys, m) for m in sys.moves()]
    zero_g = tuple([0] * len(sys.edges))
    zero_h = tuple([0] * T)
    deltas = []
    for act in acts:
        g2, h2 = act(zero_g, zero_h)
        assert g2 == zero_g
        deltas.append(np.asarray(h2, dtype=table.dtype))
    # translation cross-check against the general action, on a spread of states
    for sid in range(0, n, max(1, n // 13)):
        sample = tuple(int(x) for x in decode(sid))
        for act, d in zip(acts, deltas):
            expected = tuple(int(table[s, dv]) for s, dv in zip(sample, d))
            assert act(zero_g, sample)[1] == expected

    in_sub = np.zeros(n, dtype=bool)
    in_sub[0] = True
    sub = np.zeros((1, T), dtype=table.dtype)
    for d in deltas:
        blocks = [sub]
        step = d
        while not in_sub[_encode(step[None, :], hw)[0]]:
            block = table[sub, step[None, :]]
            in_sub[_encode(block, hw)] = True
            blocks.append(block)
            step = table[step, d]
        sub = np.concatenate(blocks)

    # orbits are the cosets of S; the least unlabelled id seeds the next one
    labels = np.full(n, -1, dtype=np.int64)
    classes = []
    seed = 0
    while seed < n:
        ids = np.sort(_encode(table[sub, decode(seed)[None, :]], hw))
        labels[ids] = len(classes)
        classes.append(ids)
        # scan for the next seed in windows of one coset, so the scans cost
        # O(n) in total however many classes there are
        while seed < n:
            free = np.flatnonzero(labels[seed : seed + len(sub)] < 0)
            if len(free):
                seed += int(free[0])
                break
            seed += len(sub)
    reps = [sys.digits_to_cocycle(zero_g, decode(int(ids[0]))) for ids in classes]
    return classes, reps, int(labels[0]), labels


def _coset_cases(limit=2**20):
    return [
        (space, f"shift:{group}")
        for space in standard_space_names()
        if not standard_space(space).simplices_of_dim(3)
        for group in ("Z2", "Z3", "Z4", "Z6", "K4")
        if coefficient_from_spec(f"shift:{group}").H.order ** len(standard_space(space).simplices_of_dim(2)) <= limit
    ]


class TestCosetPathAgainstClosure:
    """One-object coefficients without tetrahedra, once a path of their own:
    the slice, one row per coset of S, must reproduce the closure over all
    |H|^T states: sizes, representatives, base class and the label of every
    state."""

    @pytest.mark.parametrize("space,spec", _coset_cases())
    def test_same_classification(self, space, spec):
        cx, xm = standard_space(space), coefficient_from_spec(spec)
        sys = _System(cx, xm)
        n = xm.H.order ** len(sys.tris)
        cls = classify_h1(cx, xm, budget=n)
        classes, reps, base_class, labels = _reference_classify_cosets(sys, n)
        assert cls.sizes() == [len(ids) for ids in classes]
        assert all(type(size) is int for size in cls.sizes())
        assert cls.representatives == reps
        assert cls.base_class == base_class
        assert cls.num_cocycles == n
        g_mat = np.zeros((n, len(sys.edges)), dtype=np.uint8)
        h_mat = _mixed_radix(n, len(sys.tris), xm.H.order)
        assert np.array_equal(cls.labels_of(g_mat, h_mat), labels)

    def test_cases_cover_every_group(self):
        # torus7 only fits with Z2, rp2_6 with Z2, Z3, Z4 and K4
        cases = _coset_cases()
        assert {spec for _, spec in cases} == {f"shift:{g}" for g in ("Z2", "Z3", "Z4", "Z6", "K4")}
        assert ("torus7", "shift:Z2") in cases and ("rp2_6", "shift:K4") in cases


class TestEchelonChain:
    """The chain against a closure of random generators in H^3, with values
    off the generators of H so that A_p grows in several steps; then the
    triangle mask and the carries it gives against the least member of each
    coset of S."""

    @pytest.mark.parametrize(
        "H",
        [cyclic_group(4), cyclic_group(6), cyclic_group(8), klein_four_group(), direct_product(cyclic_group(2), cyclic_group(4))],
        ids=["Z4", "Z6", "Z8", "K4", "Z2xZ4"],
    )
    def test_against_closure(self, H):
        rng = random.Random(H.order)
        add = H.table.tolist()

        def plus(x, y):
            return tuple(add[a][b] for a, b in zip(x, y))

        states = list(itertools.product(range(H.order), repeat=3))
        for _ in range(40):
            gens = [tuple(rng.randrange(H.order) for _ in range(3)) for _ in range(rng.randrange(1, 4))]
            sub, frontier = {(0, 0, 0)}, {(0, 0, 0)}
            while frontier:
                frontier = {plus(x, g) for x in frontier for g in gens} - sub
                sub |= frontier
            quotient = _Quotient(H, [np.array(g) for g in gens], 3)
            for p, column in enumerate(quotient.chain):
                assert set(column) == {x[p] for x in sub if not any(x[:p])}
                for a, t in column.items():
                    assert tuple(t.tolist()) in sub and not t[:p].any() and t[p] == a
            # the mask admits exactly the least member of each coset, and the
            # carries take every state there
            least = {}
            for x in states:
                if x not in least:
                    least.update((plus(x, s), x) for s in sub)
            admitted = [x for x in states if all(quotient.allowed[p, v] for p, v in enumerate(x))]
            assert admitted == sorted(set(least.values())) and quotient.order == len(sub)
            carried = quotient.carry(np.array(states, dtype=np.int64))
            assert [tuple(x) for x in carried.tolist()] == [least[x] for x in states]
            assert [tuple(quotient.carry_row(x)) for x in states] == [least[x] for x in states]


class TestCosetPathReach:
    """Subdivided surfaces have 3^84 states with Z3 on sd(torus7): far beyond
    any closure, but the slice lists one row per class and the echelon chain
    holds one subgroup of H per triangle."""

    @pytest.mark.parametrize(
        "space,group,count",
        [
            ("sphere2", "Z2", 2), ("sphere2", "Z3", 3), ("sphere2", "K4", 4),
            ("torus7", "Z2", 2), ("torus7", "Z3", 3), ("torus7", "K4", 4),
            ("rp2_6", "Z2", 2), ("rp2_6", "Z3", 1), ("rp2_6", "K4", 4),
        ],
    )
    def test_subdivided_surface(self, space, group, count):
        cx = barycentric_subdivide(standard_space(space))
        xm = coefficient_from_spec(f"shift:{group}")
        n = xm.H.order ** len(cx.simplices_of_dim(2))
        tracemalloc.start()
        try:
            cls = classify_h1(cx, xm, budget=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cls.class_count == abelian_oracle_h2(cx, xm.H) == count
        assert len(set(cls.sizes())) == 1 and sum(cls.sizes()) == n == cls.num_cocycles
        assert cls.base_class == 0
        assert peak < 16 * 2**20
        rng = random.Random(f"{space} {group}")
        tris = cx.simplices_of_dim(2)

        def moved(c):
            k = {e: rng.randrange(xm.H.order) for e in cx.simplices_of_dim(1)}
            return apply_coboundary(c, CoboundaryWitness(f={v: 0 for v in cx.vertices}, k=k), cx, xm)

        for i, rep in enumerate(cls.representatives):
            assert cls.class_of(rep) == i
            assert cls.class_of(moved(rep)) == i
        for _ in range(5):
            c = trivial_cocycle(cx, xm)
            c.h = {t: rng.randrange(xm.H.order) for t in tris}
            assert cls.class_of(moved(c)) == cls.class_of(c)


def _mixed_radix(count: int, width: int, base: int) -> np.ndarray:
    """count x width matrix of base-`base` digits of 0..count-1, lex order."""
    if width == 0:
        return np.zeros((count, 1), dtype=np.int64)[:, :0]
    weights = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (np.arange(count, dtype=np.int64)[:, None] // weights) % base


def _reference_digit_arrays(sys: _System, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference enumeration: every |G|^E edge assignment filtered by the
    triangles, then one branch per case for the triangle data.  The enumerator
    must return the same arrays, row for row."""
    G, H = sys.G, sys.H
    E, T = len(sys.edges), len(sys.tris)
    if _candidate_count(sys) > budget:
        raise BudgetExceeded(_candidate_count(sys), budget)

    g_all = _mixed_radix(G.order**E, E, G.order)
    if T == 0:
        return g_all, np.zeros((len(g_all), 0), dtype=np.int64)

    defects = np.empty((len(g_all), T), dtype=np.int64)
    for ti, (e_ij, e_jk, e_ik) in enumerate(sys.tri_edges):
        prod = G.table[g_all[:, e_ij], g_all[:, e_jk]]
        defects[:, ti] = G.table[g_all[:, e_ik], G.inverse[prod]]
    mask = sys.in_image_t[defects].all(axis=1)
    g_valid = g_all[mask]
    defects = defects[mask]

    nker = len(sys.kernel_t)
    if nker == 1:
        h_valid = sys.t_section[defects]
        g_valid, h_valid = _filter_tets(sys, g_valid, h_valid)
        return g_valid, h_valid

    if G.order == 1:
        # single trivial g row; h ranges over all of H on each triangle
        h_all = _mixed_radix(H.order**T, T, H.order)
        _, h_all = _filter_tets(
            sys, np.zeros((len(h_all), 0), dtype=np.int64), h_all, g_row=np.zeros(E, dtype=np.int64)
        )
        return np.zeros((len(h_all), E), dtype=np.int64), h_all

    # general case: per valid g row, walk the t-preimage cosets triangle by
    # triangle and keep rows passing the tetrahedron law
    kernel = sorted(sys.kernel_t)
    rows_g, rows_h = [], []
    for row, drow in zip(g_valid, defects):
        choices = [sorted(H.mul(k, int(sys.t_section[d])) for k in kernel) for d in drow]
        for combo in itertools.product(*choices):
            if _tets_ok(sys, row, combo):
                rows_g.append(row)
                rows_h.append(combo)
    g_out = np.asarray(rows_g, dtype=np.int64).reshape(len(rows_h), E)
    h_out = np.asarray(rows_h, dtype=np.int64).reshape(len(rows_h), T)
    return g_out, h_out


def _tets_ok(sys: _System, gds, hds) -> bool:
    return all(sys.tet_law_holds(gds, hds, parts) for parts in sys.tet_parts)


def _filter_tets(sys: _System, g_mat, h_mat, g_row=None):
    if not sys.tet_parts:
        return g_mat, h_mat
    H, alpha = sys.H, sys.xm.alpha
    mask = np.ones(len(h_mat), dtype=bool)
    for (t_jkl, t_ikl, t_ijl, t_ijk, e_ij) in sys.tet_parts:
        gcol = np.full(len(h_mat), g_row[e_ij]) if g_row is not None else g_mat[:, e_ij]
        lhs = H.table[h_mat[:, t_ikl], h_mat[:, t_ijk]]
        rhs = H.table[h_mat[:, t_ijl], alpha.perms[gcol, h_mat[:, t_jkl]]]
        mask &= lhs == rhs
    return g_mat[mask], h_mat[mask]


_ENUMERATION_SPECS = [
    f"{kind}:{group}"
    for kind in ("discrete", "shift", "aut")
    for group in ("Z2", "Z3", "Z4", "S3")
    if (kind, group) != ("shift", "S3")  # a shift 2-group needs abelian H
] + ["z2z4", "hat:z2z4", "hat:aut:Z3", "hat:shift:Z2"]


def _enumeration_cases(limit=300_000):
    coefficients = {spec: coefficient_from_spec(spec) for spec in _ENUMERATION_SPECS}
    return [
        (space, spec)
        for space in standard_space_names()
        for spec, xm in coefficients.items()
        if _candidate_count(_System(standard_space(space), xm)) <= limit
    ]


class TestEnumeratorAgainstReference:
    # aut:Z3 and aut:Z4 take the reference's general branch, shift and
    # aut:Z2 its trivial-G branch, and the rest its injective-t branch;
    # tetra_solid adds the tetrahedron filter
    @pytest.mark.parametrize("space,spec", _enumeration_cases())
    def test_same_arrays(self, space, spec):
        sys = _System(standard_space(space), coefficient_from_spec(spec))
        expected = _reference_digit_arrays(sys, DEFAULT_BUDGET)
        got = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
        for want, have in zip(expected, got):
            # the digits stay in their own narrow type, one row per C-order line
            assert want.dtype == np.int64 and have.dtype == sys.digit and have.flags.c_contiguous
            assert have.shape == want.shape
            assert np.array_equal(have, want)
        cocycles = enumerate_cocycles(sys.cx, sys.xm)
        assert cocycles == [sys.digits_to_cocycle(g, h) for g, h in zip(*expected)]

    def test_two_byte_digits(self, circle3):
        # |G| = 257 needs 2-byte digits.  On a bare cycle with discrete
        # coefficients every edge assignment is a cocycle, so the reference
        # returns the mixed-radix listing of all 257^3 assignments; it is
        # compared a block of rows at a time, not built as one int64 matrix
        sys = _System(circle3, discrete_two_group(cyclic_group(257)))
        n = 257**3
        sys.tables  # built once per system, outside the traced call
        tracemalloc.start()
        try:
            g_mat, h_mat = _enumerate_digit_arrays(sys, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three 2-byte digits a row: no index array of 8 bytes per row
        assert peak <= 2 * (g_mat.nbytes + h_mat.nbytes)
        assert g_mat.dtype == h_mat.dtype == np.uint16 and g_mat.flags.c_contiguous
        assert g_mat.shape == (n, 3) and h_mat.shape == (n, 0)
        weights = 257 ** np.arange(2, -1, -1, dtype=np.int64)
        for start in range(0, n, 2**20):
            rows = np.arange(start, min(start + 2**20, n), dtype=np.int64)
            assert np.array_equal(g_mat[start : start + len(rows)], rows[:, None] // weights % 257)

    @pytest.mark.parametrize("space", standard_space_names() + [f"sd({name})" for name in standard_space_names()])
    def test_slice_is_the_filtered_full_listing(self, space):
        # on the slice a solved edge takes its coset minimum, which no other
        # test compares with the full listing directly
        cx = _space(space)
        for spec in _SLICE_SPECS:
            sys = _System(cx, coefficient_from_spec(spec))
            if _candidate_count(sys) <= DEFAULT_BUDGET:
                # p(j), the least smaller neighbour of j, is never the middle
                # vertex of a triangle on j: no forest edge closes a triangle
                closing = sys.tables[0]  # the triangles each edge closes
                assert not any(closing[e] for e in sys.forest)
                _assert_slice_is_filtered_listing(sys)

    @pytest.mark.parametrize("space", ["sphere2", "rp2_6", "torus7", "tetra_solid"])
    def test_slice_on_a_forest_that_closes_triangles(self, space):
        # with p(j) the greatest smaller neighbour instead, forest edges close
        # triangles, and their value 1 must pass each of them
        cx = standard_space(space)
        for spec in _SLICE_SPECS:
            sys = _System(cx, coefficient_from_spec(spec))
            if _candidate_count(sys) > DEFAULT_BUDGET:
                continue
            parent = {j: e for e, (_, j) in enumerate(sys.edges)}  # the last edge into j
            sys.forest = [parent[j] for j in sorted(parent)]
            closing = sys.tables[0]  # the triangles each edge closes
            assert any(closing[e] for e in sys.forest)
            _assert_slice_is_filtered_listing(sys)

    def test_trivial_kernel_needs_no_tetrahedron_filter(self):
        # where ker t is trivial each triangle is set to the one preimage of
        # its defect and no tetrahedron is checked: t of both sides of the law
        # agree by the triangle laws, so the sides agree.  Every edge row that
        # passes the triangles, nonabelian H included, passes the tetrahedron
        cx = standard_space("tetra_solid")
        checked = []
        for spec in _SLICE_SPECS:
            sys = _System(cx, coefficient_from_spec(spec))
            if len(sys.kernel_t) > 1 or _candidate_count(sys) > DEFAULT_BUDGET:
                continue
            G = sys.G
            g_all = _mixed_radix(G.order ** len(sys.edges), len(sys.edges), G.order)
            ij, jk, ik = (g_all[:, cols] for cols in np.array(sys.tri_edges).T)
            defects = G.table[ik, G.inverse[G.table[ij, jk]]]
            valid = sys.in_image_t[defects].all(axis=1)
            g_valid, h_valid = g_all[valid], sys.t_section[defects[valid]]
            assert len(_filter_tets(sys, g_valid, h_valid)[0]) == len(g_valid)
            checked.append((spec, sys.H.order))
        assert ("aut:S3", 6) in checked and len(checked) >= 10

    def test_dense_listing_peak(self):
        # all 2^21 candidates on torus7 are cocycles, 35 one-byte digits each:
        # every edge branches |t(H)| = 2 ways by a repeat, with no index array
        sys = _System(standard_space("torus7"), coefficient_from_spec("hat:shift:Z2"))
        sys.tables  # built once per system, outside the traced call
        tracemalloc.start()
        try:
            g_mat, h_mat = _enumerate_digit_arrays(sys, 2**21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g_mat.shape == (2**21, 21) and h_mat.shape == (2**21, 14)
        assert peak <= 1.25 * (g_mat.nbytes + h_mat.nbytes)

    def test_plan_drops_the_columns_that_hold_1(self):
        # shift:Z2 has trivial G, so every edge is 1; on the slice S leaves
        # one of the 14 triangles free and the others 1, and only that one
        # gets a step
        sys = _System(standard_space("torus7"), coefficient_from_spec("shift:Z2"))
        g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET, on_slice=True)
        plan = sys.plan(True)
        assert plan is sys.plan(True) and list(sys._plans) == [True]
        assert plan.edge_steps == [] and [step.func.__name__ for step in plan.tri_steps] == ["_choose"]
        assert len(g_mat) == 2 and not g_mat.any() and h_mat.sum() == 1
        # discrete coefficients have trivial H, so every triangle is 1 and
        # gets no step
        for space in standard_space_names():
            for group in ("Z2", "Z3", "S3"):
                sys = _System(standard_space(space), coefficient_from_spec(f"discrete:{group}"))
                for on_slice in (False, True):
                    assert sys.plan(on_slice).tri_steps == []
        # hat coefficients have trivial ker t: each triangle whose edges are
        # not all 1 is forced by one gather
        sys = _System(standard_space("torus7"), coefficient_from_spec("hat:shift:Z2"))
        for on_slice in (False, True):
            steps = [step.func.__name__ for step in sys.plan(on_slice).tri_steps]
            assert steps == ["_force"] * (0 if on_slice else len(sys.tris))

    @pytest.mark.parametrize("space,spec", [("rp2_6", "hat:shift:Z2"), ("sphere2", "aut:S3"), ("torus7", "shift:Z2")])
    def test_peak_per_output_digit(self, space, spec):
        # the columns and the matrices built from them take one byte per
        # digit each, and each column is let go once it is copied: no int64
        # copy of the rows is made (numpy allocations are traced)
        sys = _System(standard_space(space), coefficient_from_spec(spec))
        tracemalloc.start()
        try:
            g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        digits = g_mat.size + h_mat.size
        assert sys.digit.itemsize == 1 and digits > 10**5
        assert peak <= 5 * digits


def _assert_slice_is_filtered_listing(sys: _System) -> None:
    """The slice rows are the rows of the full listing that are 1 on
    ``sys.forest``, their coset minimum on every other edge, and whose
    every triangle value ``sys.quotient.allowed`` admits, in the same order,
    type and layout."""
    g_all, h_all = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
    g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET, on_slice=True)
    keep = (g_all == sys.coset_min[g_all]).all(axis=1) & ~g_all[:, sys.forest].any(axis=1)
    keep &= sys.quotient.allowed[np.arange(len(sys.tris)), h_all].all(axis=1)
    for want, have in ((g_all[keep], g_mat), (h_all[keep], h_mat)):
        assert have.dtype == want.dtype and have.flags.c_contiguous and np.array_equal(have, want)


def _cast_enumerator(dtype, enumerate_digit_arrays=_enumerate_digit_arrays):
    """The enumerator with both of its matrices cast to ``dtype``."""

    def cast(sys, budget, on_slice=False):
        return tuple(m.astype(dtype) for m in enumerate_digit_arrays(sys, budget, on_slice=on_slice))

    return cast


def _inclusion_two_group(order: int):
    """Z3 inside Z_order (3 divides order) as a crossed module, the action
    trivial: t(H) is a proper subgroup, so re-slicing lifts edge values."""
    G, H = cyclic_group(order), cyclic_group(3)
    return validate_crossed_module(G, H, validate_hom(H, G, [0, order // 3, 2 * order // 3]), trivial_action(G, H))


def _parity_two_group(order: int):
    """Z_order (even) acting on Z3, its odd elements by inversion, t trivial:
    the action depends on every edge value."""
    G, H = cyclic_group(order), cyclic_group(3)
    perms = [[(-h if g % 2 else h) % 3 for h in range(3)] for g in range(order)]
    return validate_crossed_module(G, H, validate_hom(H, G, [0, 0, 0]), validate_action(G, H, perms))


class TestNarrowDigits:
    """Every reader of the enumerator's matrices gives on 1-byte and 2-byte
    digits what it gives on int64 copies of them: none of them computes in
    the digits' own type.  Groups of 252 and 258 elements take ``uint8`` and
    ``uint16`` digits, so a flat index ``g * |G| + x`` or ``g * |H| + k``
    taken in that type would wrap there."""

    @pytest.mark.parametrize("order,dtype", [(252, np.uint8), (258, np.uint16)])
    @pytest.mark.parametrize(
        "space,make",
        [
            ("circle3", lambda n: discrete_two_group(cyclic_group(n))),
            ("sphere2", lambda n: shift_two_group(cyclic_group(n))),
            ("sphere2", _inclusion_two_group),
            ("sphere2", _parity_two_group),
        ],
        ids=["circle3-discrete", "sphere2-shift", "sphere2-inclusion", "sphere2-parity"],
    )
    def test_act_and_labels_of(self, order, dtype, space, make):
        cx, xm = standard_space(space), make(order)
        sys, budget = _System(cx, xm), order**4
        cls = classify_h1(cx, xm, budget=budget)
        rng = np.random.default_rng(order)

        def digits(group, width, n):
            mat = rng.integers(group.order, size=(n, width))
            mat[:3] = group.order - 1  # the largest digit, where wrapping starts
            return mat

        assert sys.digit == dtype
        slice_rows = _enumerate_digit_arrays(sys, budget, on_slice=True)
        assert all(m.dtype == dtype for m in slice_rows)
        # the slice rows, and 200 cohomologous copies of them under random witnesses
        base = [m[np.arange(200) % len(m)] for m in slice_rows]
        f, k = digits(xm.G, cx.vertex_count, 200), digits(xm.H, len(sys.edges), 200)
        moved = sys.act(*base, f, k)
        for narrow in (base, tuple(m.astype(dtype) for m in moved)):
            wide = [m.astype(np.int64) for m in narrow]
            assert np.array_equal(cls.labels_of(*narrow), cls.labels_of(*wide))
            for got, want in zip(sys.act(*narrow, f.astype(dtype), k.astype(dtype)), sys.act(*wide, f, k)):
                assert got.dtype == np.int64 and np.array_equal(got, want)


class TestClassOf:
    def test_raises_off_the_valid_set(self, sphere2, z2):
        cases = []
        # triangle law broken, slice
        c = trivial_cocycle(sphere2, discrete_two_group(z2))
        c.g[(0, 1)] = 1
        cases.append((sphere2, discrete_two_group(z2), c))
        # tetrahedron law broken, slice with trivial G
        cx = standard_space("tetra_solid")
        c = trivial_cocycle(cx, shift_two_group(z2))
        c.h[(0, 1, 2)] = 1
        cases.append((cx, shift_two_group(z2), c))
        # values outside the group, which a plain rank would alias to a
        # neighbouring cocycle: on an edge, then on a triangle
        cx = standard_space("circle6")
        xm = coefficient_from_spec("discrete:Z4")
        c = trivial_cocycle(cx, xm)
        c.g[(4, 5)] = 4
        cases.append((cx, xm, c))
        c = trivial_cocycle(sphere2, shift_two_group(z2))
        c.h[(1, 2, 3)] = 2
        cases.append((sphere2, shift_two_group(z2), c))
        for cx, xm, c in cases:
            cls = classify_h1(cx, xm)
            with pytest.raises(ValueError):
                cls.class_of(c)
            # the same cocycle as a digit row, alone and among valid rows
            sys = _System(cx, xm)
            g_row = np.array([[c.g[e] for e in sys.edges]], dtype=np.int64)
            h_row = np.array([[c.h[t] for t in sys.tris]], dtype=np.int64)
            g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
            for g, h in ((g_row, h_row), (np.concatenate([g_mat, g_row]), np.concatenate([h_mat, h_row]))):
                with pytest.raises(ValueError):
                    cls.labels_of(g, h)


class TestTetrahedronLaw:
    """The law h_ikl h_ijk = h_ijl alpha(g_ij)(h_jkl) is the one the triangle
    law implies; with it the valid set on the solid 3-simplex is closed under
    every elementary move for nonabelian H too."""

    @staticmethod
    def _tetra_coefficients(library_xmods):
        cx = standard_space("tetra_solid")
        out = []
        for xm in library_xmods:
            for candidate in (xm, hat_construction(xm)[0]):
                if _candidate_count(_System(cx, candidate)) <= DEFAULT_BUDGET:
                    out.append(candidate)
        return cx, out

    def test_moves_keep_the_valid_set(self, library_xmods):
        cx, coefficients = self._tetra_coefficients(library_xmods)
        # every hat fits the budget except that of aut:S3 (2.2e9 candidates)
        assert len(coefficients) == 2 * len(library_xmods) - 1
        for xm in coefficients:
            sys = _System(cx, xm)
            g_mat, h_mat = _enumerate_digit_arrays(sys, DEFAULT_BUDGET)
            valid = {(tuple(g.tolist()), tuple(h.tolist())) for g, h in zip(g_mat, h_mat)}
            acts = [_reference_compile_move(sys, m) for m in sys.moves()]
            # every move on a spread of at most 400 cocycles, in scalar code
            for row in range(0, len(g_mat), max(1, len(g_mat) // 400)):
                state = (tuple(g_mat[row].tolist()), tuple(h_mat[row].tolist()))
                for act in acts:
                    assert act(*state) in valid, xm.name

    def test_contractible_has_one_class(self, library_xmods):
        # classify_h1 also raises if any move leaves the enumerated set
        cx, coefficients = self._tetra_coefficients(library_xmods)
        for xm in coefficients:
            assert classify_h1(cx, xm).class_count == 1, xm.name

    def test_injective_t_keeps_every_triangle_valid_assignment(self, s3):
        # with t injective the triangle law alone forces the tetrahedron law
        cls = classify_h1(standard_space("tetra_solid"), aut_two_group(s3))
        assert cls.num_cocycles == 6**6
        assert cls.class_count == 1


class TestAbelianOracle:
    @pytest.mark.parametrize(
        "space,h,expected",
        [
            ("sphere2", 2, 2),
            ("sphere2", 3, 3),
            ("torus7", 2, 2),
            ("torus7", 3, 3),
            ("rp2_6", 2, 2),
            ("rp2_6", 3, 1),
        ],
    )
    def test_surfaces(self, space, h, expected):
        from cech2.groups import cyclic_group

        assert abelian_oracle_h2(standard_space(space), cyclic_group(h)) == expected

    def test_solid_tetra_is_trivial(self, z2):
        assert abelian_oracle_h2(standard_space("tetra_solid"), z2) == 1

    def test_rejects_nonabelian(self, sphere2, s3):
        with pytest.raises(NotAbelian):
            abelian_oracle_h2(sphere2, s3)

    def test_matches_classification_on_klein_four(self, sphere2):
        from cech2.groups import klein_four_group

        k4 = klein_four_group()
        assert abelian_oracle_h2(sphere2, k4) == classify_h1(sphere2, shift_two_group(k4)).class_count

    def test_matches_classification_with_tetrahedra(self, z2):
        # the solid 3-simplex exercises the tetrahedron filter end to end
        cx = standard_space("tetra_solid")
        cls = classify_h1(cx, shift_two_group(z2))
        assert cls.num_cocycles == 8
        assert cls.class_count == abelian_oracle_h2(cx, z2) == 1

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_hom_sizes_by_brute_force(self, data):
        # |kernel| and |image| of an integer matrix on H^cols, against every
        # vector of H^cols and its image.  A common factor of the entries
        # makes the Smith diagonal repeat values other than 1
        H = cyclic_group(data.draw(st.sampled_from([2, 3, 4, 6])))
        rows, cols, factor = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)), data.draw(st.integers(1, 3))
        entry = st.integers(-(3 // factor), 3 // factor).map(factor.__mul__)
        matrix = [data.draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
        multiple = {m: [H.power(x, m) if m >= 0 else H.inv(H.power(x, -m)) for x in H.elements()] for m in range(-3, 4)}
        images = [
            tuple(H.prod(multiple[m][x] for m, x in zip(row, xs)) for row in matrix)
            for xs in itertools.product(H.elements(), repeat=cols)
        ]
        assert _hom_sizes(H, matrix, cols) == (images.count((0,) * rows), len(set(images)))

    @pytest.mark.parametrize("space", ["point", "interval", "circle3"])
    def test_low_dimensional_spaces_are_trivial(self, space, z3):
        cx = standard_space(space)
        assert classify_h1(cx, shift_two_group(z3)).class_count == abelian_oracle_h2(cx, z3) == 1


class TestHolonomyOracle:
    def test_trivial(self, circle3, s3):
        xm = discrete_two_group(s3)
        assert holonomy_oracle(circle3, trivial_cocycle(circle3, xm), xm) == 0

    def test_transposition_class(self, circle3, s3):
        xm = discrete_two_group(s3)
        c = Cocycle(g={(0, 1): 1, (0, 2): 0, (1, 2): 0}, h={})
        classes = conjugacy_classes(s3)
        got = holonomy_oracle(circle3, c, xm)
        assert 1 in classes[got] and len(classes[got]) == 3

    def test_witness_invariant(self, circle3, s3):
        xm = discrete_two_group(s3)
        c = Cocycle(g={(0, 1): 1, (0, 2): 3, (1, 2): 0}, h={})
        base = holonomy_oracle(circle3, c, xm)
        for f in itertools.product(range(6), repeat=3):
            w = CoboundaryWitness(f={v: f[v] for v in range(3)}, k={e: 0 for e in c.g})
            assert holonomy_oracle(circle3, apply_coboundary(c, w, circle3, xm), xm) == base

    def test_not_a_cycle(self, sphere2, s3):
        xm = discrete_two_group(s3)
        with pytest.raises(NotACycle):
            holonomy_oracle(sphere2, trivial_cocycle(sphere2, xm), xm)

    def test_classification_counts_conjugacy_classes(self, circle3, s3):
        xm = discrete_two_group(s3)
        cls = classify_h1(circle3, xm)
        per_class = {}
        for c in enumerate_cocycles(circle3, xm):
            per_class.setdefault(cls.class_of(c), set()).add(holonomy_oracle(circle3, c, xm))
        assert all(len(v) == 1 for v in per_class.values())
        assert len({next(iter(v)) for v in per_class.values()}) == cls.class_count


class TestRefineCompare:
    @pytest.mark.parametrize("group,counts", [("z2", (2, 2)), ("s3", (3, 3))])
    def test_circle(self, group, counts, circle3, z2, s3):
        g = {"z2": z2, "s3": s3}[group]
        assert refine_compare(circle3, discrete_two_group(g)) == counts

    def test_point(self, s3):
        assert refine_compare(standard_space("point"), discrete_two_group(s3)) == (1, 1)


class TestEquivalenceRelation:
    @pytest.mark.parametrize("space,xm_name", [("circle3", "s3"), ("sphere2", "shift2")])
    def test_relation_axioms_and_partition(self, space, xm_name, s3, z2):
        cx = standard_space(space)
        xm = discrete_two_group(s3) if xm_name == "s3" else shift_two_group(z2)
        rel, cocycles = _reference_relation_matrix(cx, xm)
        assert rel.diagonal().all()
        assert (rel == rel.T).all()
        reach = rel.astype(int) @ rel.astype(int) > 0
        assert (reach <= rel).all()
        cls = classify_h1(cx, xm)
        labels = np.array([cls.class_of(c) for c in cocycles])
        assert ((labels[:, None] == labels[None, :]) == rel).all()
