"""Induced maps on H^1 and constructive checks of the two exactness lemmas.

For a short exact sequence 1 -> H -> G -> K -> 1 of finite groups, the
crossed module (G, H, t = inclusion, alpha = conjugation) has the same H^1
as the plain group K; both directions of that bijection are implemented
explicitly, including the lifting construction with its unique triangle
corrections.

For a short exact sequence of 2-groups, H^1 is exact as a pointed set at the
middle term.  Kernel membership is established by actually trivializing the
pushforward (not by comparing against the classified base orbit), and kernel
classes are lifted through set-theoretic sections of the quotient maps.

Surjections of finite groups always admit sections; the normalized
minimal-index section stands in for the topological fibration hypothesis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cohomology import (
    DEFAULT_BUDGET,
    DEFAULT_WITNESS_BUDGET,
    Cocycle,
    CoboundaryWitness,
    _enumerate_digit_arrays,
    _System,
    _system,
    apply_coboundary,
    classify_h1,
    cohomologous_check,
    trivial_cocycle,
    validate_cocycle,
)
from .complexes import SimplicialComplex
from .crossed_modules import (
    CrossedModule,
    CrossedModuleSES,
    TwoGroupHom,
    discrete_two_group,
    validate_crossed_module,
    validate_two_group_hom,
)
from .errors import DefectNotInKernel, NotExact, ValuesNotInKernel
from .groups import FiniteGroup, GroupHom, minimal_section, validate_action, validate_hom


@dataclass(eq=False)
class GroupSES:
    """1 -> H -> G -> K -> 1 with a chosen normalized section of the quotient.

    Compared and hashed by identity, so that its crossed module is cached."""

    inclusion: GroupHom
    projection: GroupHom
    section: np.ndarray

    @property
    def H(self) -> FiniteGroup:
        return self.inclusion.dom

    @property
    def G(self) -> FiniteGroup:
        return self.projection.dom

    @property
    def K(self) -> FiniteGroup:
        return self.projection.cod


def validate_group_ses(
    inclusion: GroupHom, projection: GroupHom, section=None
) -> GroupSES:
    """Exactness plus section normalization; raises NotExact on a failure."""
    if inclusion.cod is not projection.dom:
        raise NotExact("inclusion codomain must be projection domain")
    if not inclusion.is_injective():
        raise NotExact("left map is not injective")
    if not projection.is_surjective():
        raise NotExact("right map is not surjective")
    if set(inclusion.image()) != set(projection.kernel()):
        raise NotExact("image of inclusion differs from kernel of projection")
    sec = minimal_section(projection) if section is None else np.asarray(section, dtype=np.int64)
    if sec.shape != (projection.cod.order,) or sec.min() < 0 or sec.max() >= projection.dom.order:
        raise NotExact(f"section must list one element of {projection.dom.name} per element of {projection.cod.name}")
    if sec[0] != 0:
        raise NotExact("section must send the identity to the identity")
    for k in range(projection.cod.order):
        if projection(int(sec[k])) != k:
            raise NotExact(f"section is not a section at {k}")
    return GroupSES(inclusion, projection, sec)


@functools.lru_cache(maxsize=128)
def conjugation_crossed_module(ses: GroupSES) -> CrossedModule:
    """(G, H, inclusion, conjugation); needs H normal in G, which exactness
    gives.  Built once per sequence, so both lemma 2 maps share its H^1
    system."""
    G, H, incl = ses.G, ses.H, ses.inclusion.map
    perms = minimal_section(ses.inclusion)[G.table[G.table[:, incl], G.inverse[:, None]]]  # g h g^-1
    for g, h in np.argwhere(perms < 0)[:1]:
        raise ValueError(f"kernel is not normal at (g={g}, h={h})")
    alpha = validate_action(G, H, perms)
    return validate_crossed_module(G, H, ses.inclusion, alpha, name=f"({H.name}->{G.name})")


def discrete_crossed_module_ses(f: GroupHom, p: GroupHom) -> CrossedModuleSES:
    """Short exact sequence of discrete 2-groups from group homs f, p."""
    d0 = discrete_two_group(f.dom)
    d1 = discrete_two_group(f.cod)
    d2 = discrete_two_group(p.cod)
    triv = validate_hom(d0.H, d1.H, [0])
    left = validate_two_group_hom(d0, d1, fG=f, fH=triv)
    right = validate_two_group_hom(d1, d2, fG=p, fH=validate_hom(d1.H, d2.H, [0]))
    return CrossedModuleSES(left, right)


def pushforward_cocycle(hom: TwoGroupHom, c: Cocycle) -> Cocycle:
    """Componentwise image: g through fG, h through fH."""
    return Cocycle(
        g={e: hom.fG(v) for e, v in c.g.items()},
        h={t: hom.fH(v) for t, v in c.h.items()},
    )


def lemma2_alpha(c: Cocycle, ses: GroupSES) -> Cocycle:
    """Project edge data to K; triangle data collapses into the trivial group."""
    return Cocycle(
        g={e: ses.projection(v) for e, v in c.g.items()},
        h={t: 0 for t in c.h},
    )


def lemma2_beta(k: Cocycle, ses: GroupSES, cx: SimplicialComplex) -> Cocycle:
    """Lift a K-cocycle through the section, correcting triangles uniquely.

    The lifted edges g_ij = section(k_ij) fail the strict cocycle condition
    only by a defect projecting to the identity; that defect has exactly one
    t-preimage because the inclusion is injective, and the corrected pair
    passes validation (including the tetrahedron law).
    """
    G, pre = ses.G, minimal_section(ses.inclusion)
    g = {e: int(ses.section[v]) for e, v in k.g.items()}
    h = {}
    for (i, j, kk) in cx.simplices_of_dim(2):
        defect = G.mul(g[(i, kk)], G.inv(G.mul(g[(i, j)], g[(j, kk)])))
        if pre[defect] < 0:
            raise DefectNotInKernel((i, j, kk), defect)
        h[(i, j, kk)] = int(pre[defect])
    out = Cocycle(g=g, h=h)
    validate_cocycle(out, cx, conjugation_crossed_module(ses))
    return out


def verify_lemma2(
    ses: GroupSES, cx: SimplicialComplex, budget: int = DEFAULT_BUDGET
) -> dict:
    """Both directions of the H^1 bijection, checked on actual classifications.

    Well-definedness is exhaustive over elementary witness moves: since
    moves generate the witness group, constancy of the induced map along
    moves is constancy on classes.  Both sweeps run over whole digit
    matrices.  alpha* projects the edge digits of every (H -> G)-cocycle and
    of its image under each move; beta lifts every K-cocycle and its image
    under each move, each triangle taking the inclusion-preimage of its
    defect.  Classes are looked up with ``Classification.labels_of``, and
    every cocycle that some move carries to another class is reported, in
    enumeration order.  The round trips on class representatives use the
    scalar maps ``lemma2_alpha`` and ``lemma2_beta``.
    """
    xm_hg = conjugation_crossed_module(ses)
    xm_k = discrete_two_group(ses.K)
    cls_hg = classify_h1(cx, xm_hg, budget=budget)
    cls_k = classify_h1(cx, xm_k, budget=budget)
    sys_hg = _system(cx, xm_hg)
    sys_k = _system(cx, xm_k)
    G = ses.G

    def alpha_labels(g_mat, h_mat):
        # K-cocycles carry the trivial group's identity on every triangle
        k_h = np.zeros((len(g_mat), len(sys_k.tris)), dtype=np.int64)
        return cls_k.labels_of(ses.projection.map[g_mat], k_h)

    preimage = minimal_section(ses.inclusion)  # -1 off the kernel

    def beta_labels(gk_mat, hk_mat):
        g_mat = ses.section[gk_mat]
        h_mat = np.empty((len(g_mat), len(sys_hg.tris)), dtype=np.int64)
        for ti, (e_ij, e_jk, e_ik) in enumerate(sys_hg.tri_edges):
            defect = G.table[g_mat[:, e_ik], G.inverse[G.table[g_mat[:, e_ij], g_mat[:, e_jk]]]]
            h_mat[:, ti] = preimage[defect]
        try:
            return cls_hg.labels_of(g_mat, h_mat)
        except ValueError:
            # some defect leaves the kernel or some lift the valid set: the
            # scalar maps raise their own error on the first such row
            for gds, hds in zip(gk_mat, hk_mat):
                cls_hg.class_of(lemma2_beta(sys_k.digits_to_cocycle(gds, hds), ses, cx))
            raise

    failures = [
        f"alpha* not constant on class of cocycle {idx}"
        for idx in _moved_across_classes(sys_hg, *_enumerate_digit_arrays(sys_hg, budget), alpha_labels)
    ]
    failures += [
        f"beta not constant on class of K-cocycle {idx}"
        for idx in _moved_across_classes(sys_k, *_enumerate_digit_arrays(sys_k, budget), beta_labels)
    ]

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


def _moved_across_classes(sys: _System, g_mat: np.ndarray, h_mat: np.ndarray, labels) -> list[int]:
    """Rows whose label under ``labels(g digits, h digits)`` changes along
    some elementary move, in row order."""
    base = labels(g_mat, h_mat)
    moved = np.zeros(len(g_mat), dtype=bool)
    for move in sys.moves():
        moved |= labels(*sys.act(g_mat, h_mat, *sys.move_witness(move))) != base
    return np.flatnonzero(moved).tolist()


def lemma3_kernel_lift(
    c: Cocycle,
    ses: CrossedModuleSES,
    witness: CoboundaryWitness,
    cx: SimplicialComplex,
) -> tuple[Cocycle, CoboundaryWitness]:
    """Lift a kernel-class cocycle back through the left map.

    ``witness`` trivializes the pushforward of c along the right map.  Its
    vertex and edge data are lifted through the minimal sections of the
    quotient, the lifted witness is applied to c, and the result lands in
    the kernel of the projection = image of the left map, where it pulls
    back.  Returns the pulled-back cocycle together with the lifted witness,
    which shows the pushforward of the lift is cohomologous to c.
    """
    mid = ses.left.cod
    sec_g, sec_h = minimal_section(ses.right.fG), minimal_section(ses.right.fH)
    lifted = CoboundaryWitness(
        f={v: int(sec_g[x]) for v, x in witness.f.items()},
        k={e: int(sec_h[x]) for e, x in witness.k.items()},
    )
    moved = apply_coboundary(c, lifted, cx, mid)
    for e, v in moved.g.items():
        if ses.right.fG(v) != 0:
            raise ValuesNotInKernel(e, v)
    for t, v in moved.h.items():
        if ses.right.fH(v) != 0:
            raise ValuesNotInKernel(t, v)
    pre_g, pre_h = minimal_section(ses.left.fG), minimal_section(ses.left.fH)
    for v in [v for v in moved.g.values() if pre_g[v] < 0] + [v for v in moved.h.values() if pre_h[v] < 0]:
        raise KeyError(v)  # off the image of the left map: not exact at the middle
    lift = Cocycle(
        g={e: int(pre_g[v]) for e, v in moved.g.items()},
        h={t: int(pre_h[v]) for t, v in moved.h.items()},
    )
    validate_cocycle(lift, cx, ses.left.dom)
    return lift, lifted


def verify_lemma3(
    ses: CrossedModuleSES,
    cx: SimplicialComplex,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """image(f*) = kernel(p*) on actual classifications.

    Kernel membership runs the witness search (within
    DEFAULT_WITNESS_BUDGET) from the pushforward to the trivial cocycle and,
    when a witness is found, the explicit lift; exactness is then asserted
    as equality of class-index sets.
    """
    xm0, xm1, xm2 = ses.left.dom, ses.left.cod, ses.right.cod
    cls0 = classify_h1(cx, xm0, budget=budget)
    cls1 = classify_h1(cx, xm1, budget=budget)
    cls2 = classify_h1(cx, xm2, budget=budget)
    failures = []

    image = set()
    for rep in cls0.representatives:
        pushed = pushforward_cocycle(ses.left, rep)
        validate_cocycle(pushed, cx, xm1)
        image.add(cls1.class_of(pushed))

    kernel = set()
    lifts = 0
    for i, rep in enumerate(cls1.representatives):
        pushed = pushforward_cocycle(ses.right, rep)
        validate_cocycle(pushed, cx, xm2)
        w = cohomologous_check(pushed, trivial_cocycle(cx, xm2), cx, xm2, DEFAULT_WITNESS_BUDGET)
        if w is None:
            continue
        kernel.add(i)
        lift, lifted_witness = lemma3_kernel_lift(rep, ses, w, cx)
        back = pushforward_cocycle(ses.left, lift)
        if apply_coboundary(rep, lifted_witness, cx, xm1) != back:
            failures.append(f"lift of kernel class {i} is not cohomologous to it")
        lifts += 1

    if image != kernel:
        failures.append(f"image {sorted(image)} != kernel {sorted(kernel)}")
    if cls0.base_class != cls0.class_of(trivial_cocycle(cx, xm0)):
        failures.append("base class mislabeled at the left term")
    if cls1.class_of(pushforward_cocycle(ses.left, trivial_cocycle(cx, xm0))) != cls1.base_class:
        failures.append("f* does not preserve the basepoint")
    if cls2.class_of(pushforward_cocycle(ses.right, trivial_cocycle(cx, xm1))) != cls2.base_class:
        failures.append("p* does not preserve the basepoint")
    return {
        "ok": not failures,
        "failures": failures,
        "classes": [cls0.class_count, cls1.class_count, cls2.class_count],
        "image": sorted(image),
        "kernel": sorted(kernel),
        "kernel_lifts": lifts,
    }
