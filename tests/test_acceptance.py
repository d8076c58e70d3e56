"""Acceptance suite: one test per criterion, one printed line per criterion.

Every check here is exact (integer equality or set equality); the instances
are small enough that the whole file runs in well under a minute.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import numpy as np
import pytest

from cech2.cohomology import (
    abelian_oracle_h2,
    classify_h1,
    refine_compare,
)
from cech2.complexes import standard_space
from cech2.crossed_modules import (
    aut_two_group,
    discrete_two_group,
    hat_construction,
    interchange_holds,
    iso_hat_check,
    shift_two_group,
    two_group_from_crossed_module,
    validate_crossed_module,
    validate_ses,
)
from cech2.errors import PeifferViolation
from cech2.exactness import verify_lemma2, verify_lemma3
from cech2.fixtures import z2z4_crossed_module, z2z4z2_discrete_ses, z2z4z2_group_ses
from cech2.groups import (
    conjugacy_classes,
    cyclic_group,
    inversion_action,
    symmetric_group,
)
from cech2.nerve import (
    check_bar_multiplication,
    check_level_iso,
    check_simplicial_identities,
    nerve_two_group,
)
from test_cohomology import _reference_relation_matrix

# torus7 with Z3 coefficients enumerates 3^14 cocycles; everything else fits
# in the default budget
BIG_BUDGET = 5_000_000


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_axiom_suite(library_xmods, s3):
    for xm in library_xmods:
        validate_crossed_module(xm.G, xm.H, xm.t, xm.alpha)  # raises on failure
    with pytest.raises(PeifferViolation):
        shift_two_group(s3)
    report(1, f"{len(library_xmods)} builtin crossed modules pass both axioms; shift:S3 rejected")


def test_criterion_2_discrete_degeneration(circle3):
    got = []
    for g, want in ((cyclic_group(2), 2), (cyclic_group(4), 4), (symmetric_group(3), 3)):
        cls = classify_h1(circle3, discrete_two_group(g))
        assert cls.class_count == want == len(conjugacy_classes(g))
        got.append(cls.class_count)
    report(2, f"circle3 discrete class counts {got} match conjugacy class counts")


def test_criterion_3_abelian_degeneration():
    results = {}
    for space in ("sphere2", "torus7", "rp2_6"):
        cx = standard_space(space)
        for n in (2, 3):
            h = cyclic_group(n)
            classified = classify_h1(cx, shift_two_group(h), budget=BIG_BUDGET).class_count
            oracle = abelian_oracle_h2(cx, h)
            assert classified == oracle
            results[f"{space}/Z{n}"] = classified
    report(3, f"six shift classifications equal the cochain oracle: {results}")


def test_criterion_4_lemma2_bijection():
    ses = z2z4z2_group_ses()
    for space in ("circle3", "circle6", "sphere2"):
        rep = verify_lemma2(ses, standard_space(space))
        assert rep["ok"], rep["failures"]
        assert rep["classes"] == rep["classes_k"]
    report(4, "H^1(., Z2->Z4) <-> H^1(., Z2) bijection on circle3, circle6, sphere2")


def test_criterion_5_lemma3_exactness():
    _, hat_ses = hat_construction(z2z4_crossed_module())
    disc_ses = z2z4z2_discrete_ses()
    for label, ses in (("hat", hat_ses), ("discrete", disc_ses)):
        for space in ("circle3", "sphere2"):
            rep = verify_lemma3(ses, standard_space(space))
            assert rep["ok"], rep["failures"]
            assert rep["image"] == rep["kernel"]
    report(5, "image(f*) = kernel(p*) for the hat and discrete sequences on circle3, sphere2")


def test_criterion_6_hat_constructions():
    for spec, xm in (
        ("z2z4", z2z4_crossed_module()),
        ("aut:Z3", aut_two_group(cyclic_group(3))),
        ("shift:Z2", shift_two_group(cyclic_group(2))),
    ):
        _, ses = hat_construction(xm)
        assert validate_ses(ses)["ok"]
        iso_hat_check(xm)  # raises IsoCheckFailed on any violated equation
    report(6, "hat rows exact and hat 2-group identified with the semidirect model, 3 cases")


def test_criterion_7_good_cover_independence(circle3):
    results = {}
    for coeff_name, xm in (
        ("discrete:Z2", discrete_two_group(cyclic_group(2))),
        ("discrete:S3", discrete_two_group(symmetric_group(3))),
    ):
        counts = refine_compare(circle3, xm)
        assert counts[0] == counts[1]
        results[coeff_name] = counts
    counts = refine_compare(standard_space("point"), discrete_two_group(symmetric_group(3)))
    assert counts == (1, 1)
    results["point"] = counts
    report(7, f"class counts agree across barycentric refinement: {results}")


def test_criterion_8_equivalence_relation():
    checked = {}
    for space, xm in (
        ("circle3", discrete_two_group(symmetric_group(3))),
        ("sphere2", shift_two_group(cyclic_group(2))),
    ):
        cx = standard_space(space)
        rel, cocycles = _reference_relation_matrix(cx, xm)
        assert rel.diagonal().all(), "not reflexive"
        assert (rel == rel.T).all(), "not symmetric"
        assert ((rel.astype(int) @ rel.astype(int) > 0) <= rel).all(), "not transitive"
        cls = classify_h1(cx, xm)
        labels = np.array([cls.class_of(c) for c in cocycles])
        assert ((labels[:, None] == labels[None, :]) == rel).all(), "partition mismatch"
        checked[space] = rel.shape[0]
    report(8, f"cohomologousness is an equivalence relation matching orbits: sizes {checked}")


def test_criterion_9_nerve_suite():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    for xm in (z2z4_crossed_module(), aut_two_group(z3)):
        nsg = nerve_two_group(xm, 4)
        ids = check_simplicial_identities(nsg)
        assert ids["ok"], ids["failures"]
        iso = check_level_iso(nsg, xm)
        assert iso["ok"], iso["failures"]
        for p, level in enumerate(nsg.levels):
            assert level.order == xm.G.order * xm.H.order**p
    bar = check_bar_multiplication(z2, z3, inversion_action(z2, z3), 2)
    assert bar["ok"], bar["failures"]
    report(9, f"nerves to level 4 verified; bar multiplication on pair counts {bar['pairs']}")


def test_criterion_10_interchange():
    xm = z2z4_crossed_module()
    tg = two_group_from_crossed_module(xm)
    assert tg.mor.order == 8
    assert interchange_holds(tg)
    hat, _ = hat_construction(xm)
    tg_hat = two_group_from_crossed_module(hat)
    assert tg_hat.mor.order == 16
    assert interchange_holds(tg_hat)
    report(10, "interchange law on all composable quadruples (8 and 16 morphisms)")
