import itertools

import pytest

from cech2 import complexes
from cech2.complexes import (
    barycentric_subdivide,
    build_complex,
    standard_space,
    standard_space_names,
)
from cech2.errors import EmptySimplex, UnknownSpace, VertexOutOfRange


def counts(cx):
    return [len(cx.simplices_of_dim(k)) for k in range(4)]


class TestBuildComplex:
    def test_point(self):
        assert counts(build_complex(1, [])) == [1, 0, 0, 0]

    def test_circle3(self, circle3):
        assert counts(circle3) == [3, 3, 0, 0]

    def test_sphere_is_boundary_of_simplex(self, sphere2):
        assert counts(sphere2) == [4, 6, 4, 0]

    def test_closure_is_idempotent(self, sphere2):
        again = build_complex(4, [list(s) for s in sphere2.simplices])
        assert again.simplices == sphere2.simplices

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build_complex(3, [(0, 3)])

    def test_empty_simplex(self):
        with pytest.raises(EmptySimplex):
            build_complex(3, [()])

    def test_normalizes_ordering(self):
        cx = build_complex(3, [(2, 0, 1)])
        assert (0, 1, 2) in cx.simplices


class TestSubdivision:
    def test_circle3_becomes_hexagon(self, circle3):
        sd = barycentric_subdivide(circle3)
        assert counts(sd) == [6, 6, 0, 0]

    def test_single_edge_becomes_path(self):
        sd = barycentric_subdivide(build_complex(2, [(0, 1)]))
        assert counts(sd) == [3, 2, 0, 0]

    def test_sphere_counts(self, sphere2):
        sd = barycentric_subdivide(sphere2)
        assert counts(sd) == [14, 36, 24, 0]

    @pytest.mark.parametrize("name", standard_space_names())
    def test_preserves_euler_characteristic(self, name):
        cx = standard_space(name)
        assert barycentric_subdivide(cx).euler_characteristic() == cx.euler_characteristic()

    def test_point_is_fixed(self):
        sd = barycentric_subdivide(standard_space("point"))
        assert counts(sd) == [1, 0, 0, 0]

    @pytest.mark.parametrize("name", standard_space_names())
    def test_builds_from_the_maximal_flags(self, name, monkeypatch):
        # on the space and on its subdivision: build_complex receives exactly
        # the maximal simplices of the result, and the result is the order
        # complex, every chain of faces numbered by (least vertex, dimension,
        # simplex)
        passed = []

        def recording(vertex_count, maximal, name=""):
            passed.append(list(maximal))
            return build_complex(vertex_count, maximal, name=name)

        for cx in (standard_space(name), barycentric_subdivide(standard_space(name))):
            with monkeypatch.context() as patch:
                patch.setattr(complexes, "build_complex", recording)
                sd = barycentric_subdivide(cx)
            facets = {s[:i] + s[i + 1 :] for s in sd.simplices if len(s) > 1 for i in range(len(s))}
            assert sorted(passed.pop()) == sorted(sd.simplices - facets)
            assert sd.vertex_count == len(cx.simplices) and sd.simplices == _chains(cx)

    @pytest.mark.parametrize("name", standard_space_names())
    def test_roots_are_those_of_the_space(self, name):
        # the gauge slice keeps a free vertex move at every root, so
        # subdividing must add none: on the space and on its subdivision
        for cx in (standard_space(name), barycentric_subdivide(standard_space(name))):
            faces = sorted(cx.simplices, key=lambda s: (s[0], len(s), s))
            assert [faces[v] for v in _roots(barycentric_subdivide(cx))] == [(v,) for v in _roots(cx)]


def _roots(cx):
    """The vertices with no smaller neighbour."""
    children = {j for _, j in cx.simplices_of_dim(1)}
    return [v for v in cx.vertices if v not in children]


def _chains(cx):
    """Every chain of faces of ``cx``, descending through all proper faces,
    as a simplex on the faces numbered by (least vertex, dimension, simplex)."""
    index = {s: i for i, s in enumerate(sorted(cx.simplices, key=lambda s: (s[0], len(s), s)))}
    chains = set()

    def extend(chain):
        chains.add(tuple(sorted(index[s] for s in chain)))
        for size in range(1, len(chain[-1])):
            for face in itertools.combinations(chain[-1], size):
                extend(chain + (face,))

    for s in cx.simplices:
        extend((s,))
    return chains


class TestStandardSpaces:
    @pytest.mark.parametrize(
        "name,expected,chi",
        [
            ("point", [1, 0, 0, 0], 1),
            ("interval", [2, 1, 0, 0], 1),
            ("circle3", [3, 3, 0, 0], 0),
            ("circle6", [6, 6, 0, 0], 0),
            ("sphere2", [4, 6, 4, 0], 2),
            ("torus7", [7, 21, 14, 0], 0),
            ("rp2_6", [6, 15, 10, 0], 1),
        ],
    )
    def test_counts_and_euler(self, name, expected, chi):
        cx = standard_space(name)
        assert counts(cx) == expected
        assert cx.euler_characteristic() == chi

    @pytest.mark.parametrize("name", ["torus7", "rp2_6", "sphere2"])
    def test_closed_surface_edge_links(self, name):
        cx = standard_space(name)
        for e in cx.edges:
            stars = [t for t in cx.triangles if set(e) <= set(t)]
            assert len(stars) == 2

    def test_unknown(self):
        with pytest.raises(UnknownSpace):
            standard_space("klein_bottle")


class TestSimplicesOfDim:
    def test_lexicographic_edges(self, circle3):
        assert circle3.simplices_of_dim(1) == [(0, 1), (0, 2), (1, 2)]

    def test_sphere_triangles(self, sphere2):
        assert len(sphere2.simplices_of_dim(2)) == 4

    def test_point_has_no_edges(self):
        assert standard_space("point").simplices_of_dim(1) == []
