import itertools

import numpy as np
import pytest

from cech2.cohomology import (
    DEFAULT_BUDGET,
    Cocycle,
    CoboundaryWitness,
    _enumerate_digit_arrays,
    _System,
    apply_coboundary,
    classify_h1,
    cohomologous_check,
    enumerate_cocycles,
    identity_witness,
    trivial_cocycle,
    validate_cocycle,
)
from cech2.complexes import standard_space
from cech2.crossed_modules import discrete_two_group, hat_construction
from cech2.errors import BudgetExceeded, DefectNotInKernel, NotExact
from cech2.exactness import (
    GroupSES,
    conjugation_crossed_module,
    discrete_crossed_module_ses,
    lemma2_alpha,
    lemma2_beta,
    lemma3_kernel_lift,
    minimal_section,
    pushforward_cocycle,
    validate_group_ses,
    verify_lemma2,
    verify_lemma3,
)
from cech2.fixtures import z2z4z2_discrete_ses
from cech2.groups import cyclic_group, validate_hom
from test_cohomology import _cast_enumerator, _reference_compile_move


@pytest.fixture(scope="module")
def z3s3z2(z3, s3, z2):
    """1 -> Z3 -> S3 -> Z2 -> 1; conjugation acts nontrivially on the kernel."""
    incl_values = [0, next(x for x in s3.elements() if s3.element_order(x) == 3)]
    incl_values.append(s3.mul(incl_values[1], incl_values[1]))
    incl = validate_hom(z3, s3, incl_values)
    proj = validate_hom(s3, z2, [0 if x in incl_values else 1 for x in s3.elements()])
    return validate_group_ses(incl, proj)


class TestGroupSES:
    def test_z2z4z2(self, z2z4z2):
        assert z2z4z2.section.tolist() == [0, 1]
        assert z2z4z2.H.order == 2 and z2z4z2.G.order == 4 and z2z4z2.K.order == 2

    def test_rejects_non_exact(self, z2, z4):
        incl = validate_hom(z2, z4, [0, 2])
        proj = validate_hom(z4, z4, [0, 1, 2, 3])
        with pytest.raises(ValueError):
            validate_group_ses(incl, proj)

    def test_section_must_be_normalized(self, z2z4z2):
        with pytest.raises(ValueError):
            validate_group_ses(z2z4z2.inclusion, z2z4z2.projection, section=[2, 1])

    def test_inclusion_must_land_in_the_projected_group(self, z2, z4):
        # an equal table is not enough: the two maps must share the group
        incl = validate_hom(z2, z4, [0, 2])
        proj = validate_hom(cyclic_group(4), z2, [0, 1, 0, 1])
        with pytest.raises(NotExact, match="inclusion codomain"):
            validate_group_ses(incl, proj)

    def test_inclusion_must_be_injective(self, z1, z2, z4):
        incl = validate_hom(z4, z2, [0, 1, 0, 1])
        proj = validate_hom(z2, z1, [0, 0])
        with pytest.raises(NotExact, match="not injective"):
            validate_group_ses(incl, proj)

    def test_section_must_lift_every_element(self, z2z4z2):
        # 2 is normalized and in range, but lies over 0, not over 1
        with pytest.raises(NotExact, match="not a section at 1"):
            validate_group_ses(z2z4z2.inclusion, z2z4z2.projection, section=[0, 2])

    def test_conjugation_crossed_module(self, z2z4z2):
        xm = conjugation_crossed_module(z2z4z2)
        assert xm.alpha.is_trivial()  # Z4 is abelian

    def test_nonabelian_conjugation(self, z3s3z2):
        xm = conjugation_crossed_module(z3s3z2)
        assert not xm.alpha.is_trivial()


class TestPushforward:
    def test_identity(self, z2z4, sphere2):
        from cech2.crossed_modules import validate_two_group_hom
        from cech2.groups import identity_hom

        hom = validate_two_group_hom(z2z4, z2z4, identity_hom(z2z4.G), identity_hom(z2z4.H))
        for c in enumerate_cocycles(sphere2, z2z4)[::101]:
            assert pushforward_cocycle(hom, c) == c

    def test_discrete_projection_reduces_edges(self, circle3, z2, z4):
        ses = z2z4z2_discrete_ses()
        xm1 = ses.left.cod
        c = Cocycle(g={(0, 1): 3, (0, 2): 2, (1, 2): 1}, h={})
        out = pushforward_cocycle(ses.right, c)
        assert out.g == {(0, 1): 1, (0, 2): 0, (1, 2): 1}

    def test_trivial_to_trivial_and_validity(self, circle3, z2z4):
        hat, ses = hat_construction(z2z4)
        c = trivial_cocycle(circle3, hat)
        out = pushforward_cocycle(ses.right, c)
        assert out.is_trivial()
        assert validate_cocycle(out, circle3, z2z4)["ok"]

    def test_descends_to_classes(self, circle3, z2z4):
        # cohomologous inputs push to cohomologous outputs: sweep all
        # witnesses of the hat coefficients on the circle
        hat, ses = hat_construction(z2z4)
        cls_mid = classify_h1(circle3, hat)
        cls_out = classify_h1(circle3, z2z4)
        for c in enumerate_cocycles(circle3, hat)[::29]:
            expected = cls_out.class_of(pushforward_cocycle(ses.right, c))
            for f in itertools.product(range(8), repeat=3):
                w = CoboundaryWitness(f={v: f[v] for v in range(3)}, k={e: 0 for e in c.g})
                moved = apply_coboundary(c, w, circle3, hat)
                assert cls_out.class_of(pushforward_cocycle(ses.right, moved)) == expected


class TestLemma2Maps:
    def test_alpha_trivial_to_trivial(self, circle3, z2z4z2):
        xm = conjugation_crossed_module(z2z4z2)
        out = lemma2_alpha(trivial_cocycle(circle3, xm), z2z4z2)
        assert out.is_trivial()

    def test_alpha_reduces_mod_kernel(self, circle3, z2z4z2):
        xm = conjugation_crossed_module(z2z4z2)
        c = Cocycle(g={(0, 1): 3, (0, 2): 2, (1, 2): 1}, h={})
        out = lemma2_alpha(c, z2z4z2)
        assert out.g == {(0, 1): 1, (0, 2): 0, (1, 2): 1}

    def test_alpha_kills_kernel_valued_cocycles(self, circle3, z2z4z2):
        c = Cocycle(g={(0, 1): 2, (0, 2): 0, (1, 2): 2}, h={})
        assert lemma2_alpha(c, z2z4z2).is_trivial()

    def test_beta_trivial(self, circle3, z2z4z2):
        xmk = discrete_two_group(z2z4z2.K)
        out = lemma2_beta(trivial_cocycle(circle3, xmk), z2z4z2, circle3)
        assert out.is_trivial()

    def test_beta_lifts_through_section(self, circle3, z2z4z2):
        xmk = discrete_two_group(z2z4z2.K)
        k = Cocycle(g={(0, 1): 1, (0, 2): 0, (1, 2): 1}, h={})
        out = lemma2_beta(k, z2z4z2, circle3)
        assert all(v in (0, 1) for v in out.g.values())  # minimal preimages

    def test_beta_output_validates_everywhere(self, sphere2, z2z4z2):
        # exhaustive over all K-cocycles on the sphere
        xmk = discrete_two_group(z2z4z2.K)
        xm = conjugation_crossed_module(z2z4z2)
        for k in enumerate_cocycles(sphere2, xmk):
            out = lemma2_beta(k, z2z4z2, sphere2)
            assert validate_cocycle(out, sphere2, xm)["ok"]

    def test_section_independence(self, circle3, sphere2, z2z4z2):
        # both normalized sections of Z4 -> Z2 give cohomologous lifts
        other = validate_group_ses(z2z4z2.inclusion, z2z4z2.projection, section=[0, 3])
        xm = conjugation_crossed_module(z2z4z2)
        for cx in (circle3, sphere2):
            xmk = discrete_two_group(z2z4z2.K)
            for k in enumerate_cocycles(cx, xmk):
                a = lemma2_beta(k, z2z4z2, cx)
                b = lemma2_beta(k, other, cx)
                assert cohomologous_check(a, b, cx, xm) is not None


def _reference_verify_lemma2(ses, cx, budget=DEFAULT_BUDGET) -> dict:
    """Reference: the scalar sweep, one Cocycle per cocycle and per move
    through lemma2_alpha, lemma2_beta and class_of."""
    xm_hg = conjugation_crossed_module(ses)
    xm_k = discrete_two_group(ses.K)
    cls_hg = classify_h1(cx, xm_hg, budget=budget)
    cls_k = classify_h1(cx, xm_k, budget=budget)
    sys_hg = _System(cx, xm_hg)
    sys_k = _System(cx, xm_k)
    failures = []

    # alpha* well-defined: same K-class along every elementary move, swept
    # over every cocycle
    moves_hg = [(m, _reference_compile_move(sys_hg, m)) for m in sys_hg.moves()]
    g_mat, h_mat = _enumerate_digit_arrays(sys_hg, budget)
    for idx in range(len(g_mat)):
        gds = tuple(int(x) for x in g_mat[idx])
        hds = tuple(int(x) for x in h_mat[idx])
        c = sys_hg.digits_to_cocycle(gds, hds)
        base_class = cls_k.class_of(lemma2_alpha(c, ses))
        for _, act in moves_hg:
            g2, h2 = act(gds, hds)
            moved = sys_hg.digits_to_cocycle(g2, h2)
            if cls_k.class_of(lemma2_alpha(moved, ses)) != base_class:
                failures.append(f"alpha* not constant on class of cocycle {idx}")
                break
    # beta well-defined, same strategy on the K side
    gk_mat, hk_mat = _enumerate_digit_arrays(sys_k, budget)
    moves_k = [(m, _reference_compile_move(sys_k, m)) for m in sys_k.moves()]
    for idx in range(len(gk_mat)):
        gds = tuple(int(x) for x in gk_mat[idx])
        hds = tuple(int(x) for x in hk_mat[idx])
        kcoc = sys_k.digits_to_cocycle(gds, hds)
        base_class = cls_hg.class_of(lemma2_beta(kcoc, ses, cx))
        for _, act in moves_k:
            g2, h2 = act(gds, hds)
            moved = sys_k.digits_to_cocycle(g2, h2)
            if cls_hg.class_of(lemma2_beta(moved, ses, cx)) != base_class:
                failures.append(f"beta not constant on class of K-cocycle {idx}")
                break

    # round trips on class representatives
    for i, rep in enumerate(cls_k.representatives):
        if cls_k.class_of(lemma2_alpha(lemma2_beta(rep, ses, cx), ses)) != i:
            failures.append(f"alpha* o beta moved K-class {i}")
    for i, rep in enumerate(cls_hg.representatives):
        if cls_hg.class_of(lemma2_beta(lemma2_alpha(rep, ses), ses, cx)) != i:
            failures.append(f"beta o alpha* moved class {i}")

    if cls_hg.class_count != cls_k.class_count:
        failures.append(
            f"class counts differ: {cls_hg.class_count} vs {cls_k.class_count}"
        )
    return {
        "ok": not failures,
        "failures": failures,
        "classes": cls_hg.class_count,
        "classes_k": cls_k.class_count,
        "cocycles": int(cls_hg.num_cocycles),
        "cocycles_k": int(cls_k.num_cocycles),
    }


class TestVerifyLemma2:
    @pytest.mark.parametrize("space", ["circle3", "circle6", "sphere2"])
    def test_z2z4z2(self, space, z2z4z2):
        report = verify_lemma2(z2z4z2, standard_space(space))
        assert report["ok"], report["failures"]
        assert report["classes"] == report["classes_k"]
        assert report == _reference_verify_lemma2(z2z4z2, standard_space(space))

    @pytest.mark.parametrize("space,classes", [("circle3", 2), ("sphere2", 1), ("tetra_solid", 1)])
    def test_nonabelian_extension(self, space, classes, z3s3z2):
        report = verify_lemma2(z3s3z2, standard_space(space))
        assert report["ok"], report["failures"]
        assert (report["classes"], report["classes_k"], report["cocycles_k"]) == (classes, classes, 8)
        assert report == _reference_verify_lemma2(z3s3z2, standard_space(space))

    def test_reports_every_moved_cocycle(self, circle3, z2z4z2, monkeypatch):
        # a class lookup that splits the classes by one edge digit makes
        # some moves change the class; both sweeps must flag the same rows
        import cech2.cohomology as cohomology

        class_of = cohomology.Classification.class_of
        labels_of = cohomology.Classification.labels_of

        def split_class_of(self, c):
            return class_of(self, c) + 2 * (c.g[(0, 1)] % 2)

        def split_labels_of(self, g_mat, h_mat):
            return labels_of(self, g_mat, h_mat) + 2 * (g_mat[:, 0] % 2)

        monkeypatch.setattr(cohomology.Classification, "class_of", split_class_of)
        monkeypatch.setattr(cohomology.Classification, "labels_of", split_labels_of)
        report = verify_lemma2(z2z4z2, circle3)
        assert not report["ok"]
        assert report == _reference_verify_lemma2(z2z4z2, circle3)

    @pytest.mark.parametrize("side,error", [("hg", ValueError), ("k", DefectNotInKernel)])
    def test_row_off_the_valid_set_raises_as_the_scalar_sweep(self, side, error, sphere2, z2z4z2, monkeypatch):
        # append a row that breaks the triangle law on triangle (0, 1, 2):
        # its alpha*-image is no K-cocycle, and its lift has a defect outside
        # the kernel
        import cech2.exactness as exactness

        def corrupted(sys, budget, enumerate_digit_arrays=_enumerate_digit_arrays):
            g_mat, h_mat = enumerate_digit_arrays(sys, budget)
            if (sys.H.order == 1) == (side == "k"):  # K-cocycles carry trivial h
                bad_g = np.zeros((1, g_mat.shape[1]), dtype=np.int64)
                bad_g[0, sys.eidx[(0, 1)]] = 1
                g_mat = np.concatenate([g_mat, bad_g])
                h_mat = np.concatenate([h_mat, np.zeros((1, h_mat.shape[1]), dtype=np.int64)])
            return g_mat, h_mat

        monkeypatch.setattr(exactness, "_enumerate_digit_arrays", corrupted)
        with pytest.raises(error):
            verify_lemma2(z2z4z2, sphere2)
        monkeypatch.setitem(globals(), "_enumerate_digit_arrays", corrupted)
        with pytest.raises(error):
            _reference_verify_lemma2(z2z4z2, sphere2)

    @pytest.mark.parametrize("space", ["circle3", "sphere2"])
    @pytest.mark.parametrize("split", [False, True])
    def test_same_report_in_every_digit_width(self, space, split, z3s3z2, monkeypatch):
        # the sweeps read the enumerator's matrices; with the class lookup
        # split by one edge digit, as above, the report lists moved rows
        import cech2.cohomology as cohomology
        import cech2.exactness as exactness

        if split:
            labels_of = cohomology.Classification.labels_of
            monkeypatch.setattr(
                cohomology.Classification,
                "labels_of",
                lambda self, g_mat, h_mat: labels_of(self, g_mat, h_mat) + 2 * (g_mat[:, 0] % 2),
            )
        reports = {}
        for dtype in (np.uint8, np.uint16, np.int64):
            monkeypatch.setattr(exactness, "_enumerate_digit_arrays", _cast_enumerator(dtype))
            reports[dtype] = verify_lemma2(z3s3z2, standard_space(space))
        assert reports[np.uint8] == reports[np.uint16] == reports[np.int64]
        assert reports[np.int64]["ok"] != split

    def test_k_trivial_collapses(self, circle3, z3):
        # 1 -> Z3 -> Z3 -> 1 -> 1: both sides a single class
        from cech2.groups import identity_hom, trivial_group

        z1 = trivial_group()
        ses = validate_group_ses(identity_hom(z3), validate_hom(z3, z1, [0, 0, 0]))
        report = verify_lemma2(ses, circle3)
        assert report["ok"] and report["classes"] == 1


class TestTrivializationWitness:
    # verify_lemma3's kernel test: a witness to the trivial cocycle
    def test_trivial_gets_identity(self, circle3, z2z4):
        c = trivial_cocycle(circle3, z2z4)
        w = cohomologous_check(c, trivial_cocycle(circle3, z2z4), circle3, z2z4)
        assert w is not None and w.is_identity()

    def test_perturbed_trivial_recovered(self, sphere2, z2z4):
        w = CoboundaryWitness(
            f={0: 1, 1: 3, 2: 0, 3: 2},
            k={e: i % 2 for i, e in enumerate(sphere2.edges)},
        )
        c = apply_coboundary(trivial_cocycle(sphere2, z2z4), w, sphere2, z2z4)
        back = cohomologous_check(c, trivial_cocycle(sphere2, z2z4), sphere2, z2z4)
        assert back is not None
        assert apply_coboundary(c, back, sphere2, z2z4) == trivial_cocycle(sphere2, z2z4)

    def test_nontrivial_holonomy_not_found(self, circle3, z4):
        xm = discrete_two_group(z4)
        c = Cocycle(g={(0, 1): 1, (0, 2): 0, (1, 2): 0}, h={})
        assert cohomologous_check(c, trivial_cocycle(circle3, xm), circle3, xm) is None

    def test_budget(self, circle3, z2z4):
        c = trivial_cocycle(circle3, z2z4)
        with pytest.raises(BudgetExceeded):
            cohomologous_check(c, c, circle3, z2z4, witness_budget=3)


class TestLemma3KernelLift:
    def test_subgroup_valued_cocycle_lifts_unchanged(self, circle3, z2z4):
        hat, ses = hat_construction(z2z4)
        # edge values in the image of the left map: f(h) = (t(h), h^-1)
        val = int(ses.left.fG(1))
        c = Cocycle(g={(0, 1): val, (0, 2): 0, (1, 2): val}, h={})
        assert validate_cocycle(c, circle3, hat)["ok"]
        lift, w = lemma3_kernel_lift(c, ses, identity_witness(circle3), circle3)
        assert w.is_identity()
        assert pushforward_cocycle(ses.left, lift) == c

    def test_every_kernel_class_lifts_hat_circle(self, circle3, z2z4):
        hat, ses = hat_construction(z2z4)
        cls1 = classify_h1(circle3, hat)
        lifted = 0
        for rep in cls1.representatives:
            pushed = pushforward_cocycle(ses.right, rep)
            w = cohomologous_check(pushed, trivial_cocycle(circle3, z2z4), circle3, z2z4)
            if w is None:
                continue
            lift, lift_w = lemma3_kernel_lift(rep, ses, w, circle3)
            assert validate_cocycle(lift, circle3, ses.left.dom)["ok"]
            assert apply_coboundary(rep, lift_w, circle3, hat) == pushforward_cocycle(ses.left, lift)
            lifted += 1
        assert lifted == 2

    def test_discrete_ses_sphere(self, sphere2):
        ses = z2z4z2_discrete_ses()
        cls1 = classify_h1(sphere2, ses.left.cod)
        for rep in cls1.representatives:
            pushed = pushforward_cocycle(ses.right, rep)
            w = cohomologous_check(pushed, trivial_cocycle(sphere2, ses.right.cod), sphere2, ses.right.cod)
            if w is not None:
                lift, _ = lemma3_kernel_lift(rep, ses, w, sphere2)
                assert validate_cocycle(lift, sphere2, ses.left.dom)["ok"]


class TestVerifyLemma3:
    @pytest.mark.parametrize("space", ["circle3", "sphere2"])
    def test_hat_sequence(self, space, z2z4):
        _, ses = hat_construction(z2z4)
        report = verify_lemma3(ses, standard_space(space))
        assert report["ok"], report["failures"]
        assert report["image"] == report["kernel"]

    @pytest.mark.parametrize("space", ["circle3", "sphere2"])
    def test_discrete_sequence(self, space):
        report = verify_lemma3(z2z4z2_discrete_ses(), standard_space(space))
        assert report["ok"], report["failures"]

    def test_circle_kernel_is_proper_nontrivial(self, circle3):
        # the kernel on the circle is the classic index-two behavior
        report = verify_lemma3(z2z4z2_discrete_ses(), circle3)
        assert report["classes"] == [2, 4, 2]
        assert report["kernel"] == [0, 2]

    def test_point_everything_trivial(self, z2z4):
        _, ses = hat_construction(z2z4)
        report = verify_lemma3(ses, standard_space("point"))
        assert report["ok"] and report["classes"] == [1, 1, 1]
