"""Builtin fixtures and the JSON formats shared by the CLI and tests.

Groups, spaces, and coefficient objects referenced by name anywhere on the
command line resolve through the registries here, so every verification run
works with zero external data files.
"""

from __future__ import annotations

import json
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
from .exactness import GroupSES, discrete_crossed_module_ses, validate_group_ses
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    cyclic_group,
    klein_four_group,
    symmetric_group,
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
    from .groups import trivial_action

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


# JSON formats


def group_to_json(g: FiniteGroup) -> dict:
    return {"name": g.name, "order": g.order, "table": g.table.tolist()}


def group_from_json(obj: dict) -> FiniteGroup:
    return validate_group(obj["table"], name=obj.get("name", "G"))


def hom_to_json(f: GroupHom) -> dict:
    return {"dom": f.dom.name, "cod": f.cod.name, "map": f.map.tolist()}


def hom_from_json(obj: dict, registry: dict[str, FiniteGroup]) -> GroupHom:
    return validate_hom(registry[obj["dom"]], registry[obj["cod"]], obj["map"])


def action_to_json(a: GroupAction) -> dict:
    return {"actor": a.actor.name, "target": a.target.name, "perms": a.perms.tolist()}


def action_from_json(obj: dict, registry: dict[str, FiniteGroup]) -> GroupAction:
    return validate_action(registry[obj["actor"]], registry[obj["target"]], obj["perms"])


def crossed_module_to_json(xm: CrossedModule) -> dict:
    return {
        "G": group_to_json(xm.G),
        "H": group_to_json(xm.H),
        "t": xm.t.map.tolist(),
        "alpha": xm.alpha.perms.tolist(),
    }


def crossed_module_from_json(obj: dict) -> CrossedModule:
    G = group_from_json(obj["G"])
    H = group_from_json(obj["H"])
    t = validate_hom(H, G, obj["t"])
    alpha = validate_action(G, H, obj["alpha"])
    return validate_crossed_module(G, H, t, alpha, name=obj.get("name", ""))


def complex_to_json(cx: SimplicialComplex) -> dict:
    maximal = [list(s) for s in sorted(cx.simplices, key=lambda s: (-len(s), s))]
    return {"vertices": cx.vertex_count, "maximal": maximal}


def complex_from_json(obj: dict) -> SimplicialComplex:
    return build_complex(obj["vertices"], obj["maximal"])


def cocycle_from_json(obj: dict) -> Cocycle:
    g = {tuple(int(x) for x in key.split(",")): int(v) for key, v in obj.get("g", {}).items()}
    h = {tuple(int(x) for x in key.split(",")): int(v) for key, v in obj.get("h", {}).items()}
    return Cocycle(g=g, h=h)


def group_ses_from_json(obj: dict) -> GroupSES:
    H = group_from_json(obj["H"])
    G = group_from_json(obj["G"])
    K = group_from_json(obj["K"])
    incl = validate_hom(H, G, obj["t"])
    proj = validate_hom(G, K, obj["p"])
    return validate_group_ses(incl, proj, obj.get("section"))


def two_group_ses_from_json(obj: dict) -> CrossedModuleSES:
    kind = obj.get("type", "discrete")
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
