import json

import numpy as np
import pytest

from cech2.cohomology import enumerate_cocycles
from cech2.complexes import standard_space
from cech2.fixtures import (
    action_from_json,
    action_to_json,
    builtin_group,
    builtin_group_names,
    cocycle_from_json,
    cocycle_to_json,
    coefficient_from_spec,
    complex_from_json,
    complex_to_json,
    crossed_module_from_json,
    crossed_module_to_json,
    group_from_json,
    group_ses_from_json,
    group_to_json,
    hom_from_json,
    hom_to_json,
    space_from_spec,
    two_group_ses_from_json,
    z2z4_crossed_module,
)
from cech2.errors import MalformedInput
from cech2.groups import inversion_action, validate_hom


class TestBuiltins:
    def test_groups(self):
        for name in builtin_group_names():
            g = builtin_group(name)
            assert g.order >= 1

    def test_cyclic_alias(self):
        assert builtin_group("C3").same_table(builtin_group("Z3"))

    def test_unknown_group(self):
        with pytest.raises(KeyError):
            builtin_group("Q8")


class TestJsonIntegersOnly:
    """A float, a boolean or a string where an index or a group element
    belongs is refused, never truncated."""

    @pytest.mark.parametrize("bad", [1.0, 1.5, True, "1", 2**63])
    def test_every_loader(self, bad, z2, z3):
        registry = {"Z2": z2, "Z3": z3}
        z2_json = group_to_json(z2)
        loads = [
            lambda: group_from_json({"table": [[0, 1], [1, bad]]}),
            lambda: hom_from_json({"dom": "Z2", "cod": "Z2", "map": [0, bad]}, registry),
            lambda: action_from_json({"actor": "Z2", "target": "Z3", "perms": [[0, 1, 2], [0, 2, bad]]}, registry),
            lambda: crossed_module_from_json({"G": z2_json, "H": z2_json, "t": [0, bad], "alpha": [[0, 1], [0, 1]]}),
            lambda: complex_from_json({"vertices": 2, "maximal": [[0, bad]]}),
            lambda: complex_from_json({"vertices": bad, "maximal": []}),
            lambda: cocycle_from_json({"g": {"0,1": bad}}),
            lambda: group_ses_from_json({"H": z2_json, "G": z2_json, "K": z2_json, "t": [0, bad], "p": [0, 1]}),
        ]
        for load in loads:
            with pytest.raises(MalformedInput):
                load()

    @pytest.mark.parametrize("key", ["0_1,2", "01,2", " 1,+2", "1, 2", "1,2,", "", "-1,2", "\u0661,2", "1,2.0", str(2**63)])
    def test_canonical_simplex_keys_only(self, key):
        # each would otherwise parse as some simplex, or overwrite another key
        with pytest.raises(MalformedInput):
            cocycle_from_json({"g": {"1,2": 0, key: 1}})
        assert cocycle_from_json({"g": {"0,12": 1}, "h": {"10,11,12": 0}}).h == {(10, 11, 12): 0}

    def test_ragged_table(self, z2):
        with pytest.raises(MalformedInput, match="rows of one length"):
            group_from_json({"table": [[0, 1], [1]]})


class TestJsonRoundTrips:
    def test_group(self, s3):
        assert group_from_json(group_to_json(s3)).same_table(s3)

    def test_hom(self, z2, z4):
        f = validate_hom(z2, z4, [0, 2])
        registry = {"Z2": z2, "Z4": z4}
        back = hom_from_json(hom_to_json(f), registry)
        assert np.array_equal(back.map, f.map)

    def test_action(self, z2, z3):
        act = inversion_action(z2, z3)
        registry = {"Z2": z2, "Z3": z3}
        back = action_from_json(action_to_json(act), registry)
        assert np.array_equal(back.perms, act.perms)

    def test_crossed_module(self, z2z4):
        back = crossed_module_from_json(crossed_module_to_json(z2z4))
        assert back.G.same_table(z2z4.G)
        assert np.array_equal(back.t.map, z2z4.t.map)

    def test_complex(self, sphere2):
        back = complex_from_json(complex_to_json(sphere2))
        assert back.simplices == sphere2.simplices

    def test_cocycle(self, sphere2, z2z4):
        c = enumerate_cocycles(sphere2, z2z4)[5]
        assert cocycle_from_json(cocycle_to_json(c)) == c

    def test_group_ses(self, z2, z4):
        obj = {
            "H": group_to_json(z2),
            "G": group_to_json(z4),
            "K": group_to_json(z2),
            "t": [0, 2],
            "p": [0, 1, 0, 1],
        }
        ses = group_ses_from_json(obj)
        assert ses.section.tolist() == [0, 1]

    def test_two_group_ses_hat(self):
        ses = two_group_ses_from_json({"type": "hat", "coeff": "z2z4"})
        assert ses.left.cod.G.order == 8

    def test_two_group_ses_discrete(self, z2, z4):
        ses = two_group_ses_from_json(
            {
                "type": "discrete",
                "H": group_to_json(z2),
                "G": group_to_json(z4),
                "K": group_to_json(z2),
                "t": [0, 2],
                "p": [0, 1, 0, 1],
            }
        )
        assert ses.left.cod.is_discrete()


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "spec,g_order,h_order",
        [
            ("discrete:S3", 6, 1),
            ("shift:Z3", 1, 3),
            ("aut:Z3", 2, 3),
            ("hat:z2z4", 8, 2),
            ("hat:shift:Z2", 2, 2),
            ("z2z4", 4, 2),
        ],
    )
    def test_coefficients(self, spec, g_order, h_order):
        xm = coefficient_from_spec(spec)
        assert (xm.G.order, xm.H.order) == (g_order, h_order)

    def test_coefficient_file(self, tmp_path):
        path = tmp_path / "xm.json"
        path.write_text(json.dumps(crossed_module_to_json(z2z4_crossed_module())))
        xm = coefficient_from_spec(str(path))
        assert xm.G.order == 4

    def test_group_files(self, tmp_path, s3, z4):
        for name, group in (("s3", s3), ("z4", z4)):
            (tmp_path / f"{name}.json").write_text(json.dumps(group_to_json(group)))
        assert coefficient_from_spec(f"discrete:{tmp_path / 's3.json'}").G.same_table(s3)
        assert coefficient_from_spec(f"shift:{tmp_path / 'z4.json'}").H.same_table(z4)

    def test_space_names_and_files(self, tmp_path):
        assert space_from_spec("torus7").vertex_count == 7
        path = tmp_path / "cx.json"
        path.write_text(json.dumps(complex_to_json(standard_space("circle3"))))
        assert space_from_spec(str(path)).simplices == standard_space("circle3").simplices

    def test_unknown_specs(self):
        for spec in ("loop:Z2", "discrete:Q8", "nonesuch"):
            with pytest.raises(KeyError):
                coefficient_from_spec(spec)
        with pytest.raises(KeyError):
            space_from_spec("klein_bottle")
