"""Builtin fixtures and the JSON formats shared by the CLI and tests.

Groups, spaces, and coefficient objects referenced by name anywhere on the
command line resolve through the registries here, so every verification run
works with zero external data files.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .complexes import SimplicialComplex, build_complex, standard_space, standard_space_names
from .crossed_modules import (
    CrossedModule,
    CrossedModuleSES,
    aut_two_group,
    discrete_two_group,
    hat_construction,
    shift_two_group,
    validate_crossed_module,
)
from .cohomology import Cocycle, cocycle_to_json  # noqa: F401 (re-exported)
from .errors import MalformedInput
from .exactness import GroupSES, discrete_crossed_module_ses, validate_group_ses
from .groups import (
    FiniteGroup,
    cyclic_group,
    klein_four_group,
    symmetric_group,
    trivial_action,
    trivial_group,
    validate_action,
    validate_group,
    validate_hom,
)

_BUILTIN_GROUPS = {
    "Z1": trivial_group,
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z6": lambda: cyclic_group(6),
    "S3": lambda: symmetric_group(3),
    "K4": klein_four_group,
}


def builtin_group_names() -> list[str]:
    return sorted(_BUILTIN_GROUPS)


def builtin_group(name: str) -> FiniteGroup:
    key = name.strip().upper()
    if key.startswith("C") and key[1:].isdigit():
        key = "Z" + key[1:]
    if key not in _BUILTIN_GROUPS:
        raise KeyError(f"unknown builtin group {name!r}; have {builtin_group_names()}")
    return _BUILTIN_GROUPS[key]()


def z2z4_crossed_module() -> CrossedModule:
    """The inclusion Z2 -> Z4 (1 maps to 2) with the trivial action."""
    z2, z4 = cyclic_group(2), cyclic_group(4)
    t = validate_hom(z2, z4, [0, 2])
    return validate_crossed_module(z4, z2, t, trivial_action(z4, z2), name="z2z4")


def z2z4z2_group_ses() -> GroupSES:
    """1 -> Z2 -> Z4 -> Z2 -> 1."""
    z2, z4 = cyclic_group(2), cyclic_group(4)
    incl = validate_hom(z2, z4, [0, 2])
    proj = validate_hom(z4, z2, [0, 1, 0, 1])
    return validate_group_ses(incl, proj)


def z2z4z2_discrete_ses() -> CrossedModuleSES:
    ses = z2z4z2_group_ses()
    return discrete_crossed_module_ses(ses.inclusion, ses.projection)


_BUILTIN_XMODS = {
    "z2z4": z2z4_crossed_module,
}


# JSON formats: where an index or a group element is expected only a JSON
# integer is accepted, so that no float or boolean is silently truncated,
# and only one that int64 holds, as the tables are int64 arrays; any other
# shape raises MalformedInput, a missing key KeyError


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise MalformedInput(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _integer(x, what: str) -> int:
    if type(x) is not int or not -(2**63) <= x < 2**63:  # bool is a subclass of int
        raise MalformedInput(f"{what} must be a JSON integer within int64, got {x!r}")
    return x


def _integers(xs, what: str) -> list[int]:
    if not isinstance(xs, list):
        raise MalformedInput(f"{what} must be a list of integers, got {xs!r}")
    return [_integer(x, what) for x in xs]


def _rows(rows, what: str) -> list[list[int]]:
    if not isinstance(rows, list):
        raise MalformedInput(f"{what} must be a list of lists of integers, got {rows!r}")
    return [_integers(row, what) for row in rows]


def _table(rows, what: str) -> list[list[int]]:
    """A list of integer rows of one length."""
    table = _rows(rows, what)
    if len({len(row) for row in table}) > 1:
        raise MalformedInput(f"{what} must have rows of one length")
    return table


def group_to_json(g: FiniteGroup) -> dict:
    return {"name": g.name, "order": g.order, "table": g.table.tolist()}


def group_from_json(obj: dict) -> FiniteGroup:
    obj = _object(obj, "a group")
    return validate_group(_table(obj["table"], "a group table"), name=obj.get("name", "G"))


def crossed_module_to_json(xm: CrossedModule) -> dict:
    return {
        "G": group_to_json(xm.G),
        "H": group_to_json(xm.H),
        "t": xm.t.map.tolist(),
        "alpha": xm.alpha.perms.tolist(),
    }


def crossed_module_from_json(obj: dict) -> CrossedModule:
    obj = _object(obj, "a crossed module")
    G = group_from_json(obj["G"])
    H = group_from_json(obj["H"])
    t = validate_hom(H, G, _integers(obj["t"], "t"))
    alpha = validate_action(G, H, _table(obj["alpha"], "alpha"))
    return validate_crossed_module(G, H, t, alpha, name=obj.get("name", ""))


def complex_to_json(cx: SimplicialComplex) -> dict:
    maximal = [list(s) for s in sorted(cx.simplices, key=lambda s: (-len(s), s))]
    return {"vertices": cx.vertex_count, "maximal": maximal}


def complex_from_json(obj: dict) -> SimplicialComplex:
    obj = _object(obj, "a complex")
    vertices = _integer(obj["vertices"], "the vertex count")
    if vertices < 0:
        raise MalformedInput(f"the vertex count must be at least 0, got {vertices}")
    return build_complex(vertices, _rows(obj["maximal"], "the maximal simplices"))


def _simplex_key(key: str) -> tuple[int, ...]:
    """A simplex from its key exactly as ``cocycle_to_json`` writes it, so
    that no two keys name one simplex."""
    if not re.fullmatch(r"(0|[1-9][0-9]*)(,(0|[1-9][0-9]*))*", key):
        raise MalformedInput(f"a simplex key must be comma-joined vertices such as '0,1', got {key!r}")
    return tuple(_integer(int(x), "a vertex") for x in key.split(","))


def cocycle_from_json(obj: dict) -> Cocycle:
    obj = _object(obj, "a cocycle")
    g, h = (
        {_simplex_key(key): _integer(v, f"the value on {key}") for key, v in values.items()}
        for values in (_object(obj.get("g", {}), "g"), _object(obj.get("h", {}), "h"))
    )
    return Cocycle(g=g, h=h)


def group_ses_from_json(obj: dict) -> GroupSES:
    obj = _object(obj, "a group sequence")
    H = group_from_json(obj["H"])
    G = group_from_json(obj["G"])
    K = group_from_json(obj["K"])
    incl = validate_hom(H, G, _integers(obj["t"], "t"))
    proj = validate_hom(G, K, _integers(obj["p"], "p"))
    section = obj.get("section")
    return validate_group_ses(incl, proj, None if section is None else _integers(section, "section"))


def two_group_ses_from_json(obj: dict) -> CrossedModuleSES:
    kind = _object(obj, "a 2-group sequence").get("type", "discrete")
    if kind == "hat":
        xm = coefficient_from_spec(obj["coeff"]) if isinstance(obj["coeff"], str) else crossed_module_from_json(obj["coeff"])
        _, ses = hat_construction(xm)
        return ses
    if kind == "discrete":
        ses = group_ses_from_json(obj)
        return discrete_crossed_module_ses(ses.inclusion, ses.projection)
    raise KeyError(f"unknown 2-group sequence type {kind!r}")


# coefficient string grammar: discrete:<group>, shift:<group>, aut:<group>,
# hat:<spec|file>, a builtin crossed module name, or a path to a
# crossed-module JSON file


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _group_from_spec(spec: str) -> FiniteGroup:
    try:
        return builtin_group(spec)
    except KeyError:
        pass
    if Path(spec).exists():
        return group_from_json(_load_json(spec))
    raise KeyError(f"unknown group {spec!r}")


def coefficient_from_spec(spec: str) -> CrossedModule:
    spec = spec.strip()
    if ":" in spec:
        kind, _, rest = spec.partition(":")
        kind = kind.lower()
        if kind == "discrete":
            return discrete_two_group(_group_from_spec(rest))
        if kind == "shift":
            return shift_two_group(_group_from_spec(rest))
        if kind == "aut":
            return aut_two_group(_group_from_spec(rest))
        if kind == "hat":
            inner = coefficient_from_spec(rest)
            hat, _ = hat_construction(inner)
            return hat
        raise KeyError(f"unknown coefficient constructor {kind!r}")
    if spec.lower() in _BUILTIN_XMODS:
        return _BUILTIN_XMODS[spec.lower()]()
    if Path(spec).exists():
        return crossed_module_from_json(_load_json(spec))
    raise KeyError(f"unknown coefficients {spec!r}")


def space_from_spec(spec: str) -> SimplicialComplex:
    spec = spec.strip()
    if spec in standard_space_names():
        return standard_space(spec)
    if Path(spec).exists():
        return complex_from_json(_load_json(spec))
    raise KeyError(f"unknown space {spec!r}; builtin: {standard_space_names()}")
