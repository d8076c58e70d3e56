"""Command line front end: validation, H^1 classification, verification suites.

All machine output is a single JSON document on stdout (byte-identical
across runs for identical inputs); human-readable progress goes to stderr.

Exit codes: 0 pass, 1 assertion or validation failure, 2 input error,
3 budget exceeded or out of memory: a run that a budget admits but memory
does not ends with {"ok": false, "error": "memory"} and no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures, nerve
from .cohomology import (
    DEFAULT_BUDGET,
    abelian_oracle_h2,
    classify_h1,
    refine_compare,
    validate_cocycle,
)
from .crossed_modules import hat_construction, iso_hat_check, validate_ses
from .errors import BudgetExceeded, CechError, MalformedInput
from .exactness import verify_lemma2, verify_lemma3
from .groups import cyclic_group, inversion_action
from .nerve import check_bar_multiplication, check_level_iso, check_simplicial_identities, nerve_two_group

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_validate(args) -> int:
    checks = []
    ok = True
    if args.coeff:
        xm = fixtures.coefficient_from_spec(args.coeff)
        checks.append({"check": "crossed-module", "name": xm.name, "ok": True})
        _say(f"crossed module {xm.name}: axioms hold on all pairs")
    cx = fixtures.space_from_spec(args.space) if args.space else None
    if cx is not None:
        checks.append({"check": "complex", "ok": True,
                       "counts": [len(cx.simplices_of_dim(k)) for k in range(4)]})
    if args.cocycle:
        if cx is None or not args.coeff:
            raise CechError("validating a cocycle needs --space and --coeff")
        obj = json.loads(Path(args.cocycle).read_text())
        xm = fixtures.coefficient_from_spec(args.coeff)
        try:
            # keys must be integer vertex lists, increasing and total
            summary = validate_cocycle(fixtures.cocycle_from_json(obj), cx, xm)
        except ValueError as e:
            raise MalformedInput(f"cocycle {args.cocycle}: {e}") from e
        checks.append({"check": "cocycle", **summary})
        _say("cocycle satisfies both laws")
    _emit({"ok": ok, "checks": checks}, args.out)
    return EXIT_OK


def cmd_h1(args) -> int:
    cx = fixtures.space_from_spec(args.space)
    xm = fixtures.coefficient_from_spec(args.coeff)
    _say(f"classifying H^1({cx.name or 'complex'}, {xm.name}) ...")
    cls = classify_h1(cx, xm, budget=args.budget)
    report = cls.to_report()
    report["ok"] = True
    report["space"] = cx.name
    report["coefficients"] = xm.name
    report["cocycles"] = int(cls.num_cocycles)
    _say(f"{cls.class_count} classes over {cls.num_cocycles} cocycles")
    _emit(report, args.out)
    return EXIT_OK


def _suite_lemma2(args) -> dict:
    ses = (
        fixtures.group_ses_from_json(json.loads(Path(args.ses).read_text()))
        if args.ses
        else fixtures.z2z4z2_group_ses()
    )
    spaces = [args.space] if args.space else ["circle3", "circle6", "sphere2"]
    results = {}
    for name in spaces:
        results[name] = verify_lemma2(ses, fixtures.space_from_spec(name), budget=args.budget)
        _say(f"lemma2 on {name}: {'ok' if results[name]['ok'] else 'FAILED'}")
    return {"suite": "lemma2", "ok": all(r["ok"] for r in results.values()), "spaces": results}


def _suite_lemma3(args) -> dict:
    if args.ses:
        sequences = {"file": fixtures.two_group_ses_from_json(json.loads(Path(args.ses).read_text()))}
    else:
        _, hat_ses = hat_construction(fixtures.z2z4_crossed_module())
        sequences = {"hat:z2z4": hat_ses, "discrete:z2-z4-z2": fixtures.z2z4z2_discrete_ses()}
    spaces = [args.space] if args.space else ["circle3", "sphere2"]
    results = {}
    for label, ses in sequences.items():
        for name in spaces:
            rep = verify_lemma3(ses, fixtures.space_from_spec(name), budget=args.budget)
            results[f"{label}@{name}"] = rep
            _say(f"lemma3 {label} on {name}: {'ok' if rep['ok'] else 'FAILED'}")
    return {"suite": "lemma3", "ok": all(r["ok"] for r in results.values()), "cases": results}


def _suite_hat_iso(args) -> dict:
    specs = [args.coeff] if args.coeff else ["z2z4", "aut:Z3", "shift:Z2"]
    results = {}
    for spec in specs:
        xm = fixtures.coefficient_from_spec(spec)
        _, ses = hat_construction(xm)
        rows = validate_ses(ses)
        iso_hat_check(xm)  # raises on failure
        results[spec] = {"rows_exact": rows["ok"], "iso": True}
        _say(f"hat construction for {spec}: rows exact, 2-groups identified")
    return {"suite": "hat-iso", "ok": all(r["rows_exact"] and r["iso"] for r in results.values()), "cases": results}


def _cases(args, defaults: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The one case --space and --coeff name together, or the defaults when
    neither is given."""
    if args.space and args.coeff:
        return [(args.space, args.coeff)]
    if args.space or args.coeff:
        missing = "--coeff" if args.space else "--space"
        raise MalformedInput(f"verify {args.suite} needs {missing} too: --space and --coeff name one case together")
    return defaults


def _suite_refine(args) -> dict:
    cases = _cases(args, [("circle3", "discrete:Z2"), ("circle3", "discrete:S3"), ("point", "discrete:S3")])
    results = {}
    for space, coeff in cases:
        counts = refine_compare(
            fixtures.space_from_spec(space), fixtures.coefficient_from_spec(coeff), budget=args.budget
        )
        results[f"{space}/{coeff}"] = {"counts": list(counts), "equal": counts[0] == counts[1]}
        _say(f"refine {space} with {coeff}: {counts}")
    return {"suite": "refine", "ok": all(r["equal"] for r in results.values()), "cases": results}


def _suite_abelian(args) -> dict:
    cases = _cases(args, [(m, f"shift:{h}") for m in ("sphere2", "torus7", "rp2_6") for h in ("Z2", "Z3")])
    results = {}
    for space, coeff in cases:
        cx = fixtures.space_from_spec(space)
        xm = fixtures.coefficient_from_spec(coeff)
        budget = max(args.budget, xm.H.order ** len(cx.simplices_of_dim(2)))
        classified = classify_h1(cx, xm, budget=budget).class_count
        oracle = abelian_oracle_h2(cx, xm.H)
        results[f"{space}/{coeff}"] = {"classified": classified, "oracle": oracle, "equal": classified == oracle}
        _say(f"{space} with {coeff}: classified {classified}, oracle {oracle}")
    return {"suite": "abelian", "ok": all(r["equal"] for r in results.values()), "cases": results}


def _suite_nerve(args) -> dict:
    specs = [args.coeff] if args.coeff else ["z2z4", "aut:Z3"]
    results = {}
    for spec in specs:
        xm = fixtures.coefficient_from_spec(spec)
        nsg = nerve_two_group(xm, args.depth)
        ids = check_simplicial_identities(nsg)
        iso = check_level_iso(nsg, xm)
        sizes_ok = all(
            g.order == xm.G.order * xm.H.order**p for p, g in enumerate(nsg.levels)
        )
        results[spec] = {
            "levels": ids["levels"],
            "identities": ids["ok"],
            "string_model": iso["ok"],
            "cardinalities": sizes_ok,
        }
        _say(f"nerve of {spec}: levels {ids['levels']}")
    bar = check_bar_multiplication(
        cyclic_group(2), cyclic_group(3), inversion_action(cyclic_group(2), cyclic_group(3)), 2
    )
    results["bar:Z2@Z3"] = {"pairs": bar["pairs"], "ok": bar["ok"]}
    _say(f"bar multiplication Z2 on Z3: pairs {bar['pairs']}")
    ok = all(
        all(v for k, v in r.items() if isinstance(v, bool)) for r in results.values()
    ) and bar["ok"]
    return {"suite": "nerve", "ok": ok, "cases": results}


_SUITES = {
    "lemma2": _suite_lemma2,
    "lemma3": _suite_lemma3,
    "hat-iso": _suite_hat_iso,
    "refine": _suite_refine,
    "abelian": _suite_abelian,
    "nerve": _suite_nerve,
}


def cmd_verify(args) -> int:
    report = _SUITES[args.suite](args)
    _emit(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_FAIL


def cmd_nerve(args) -> int:
    xm = fixtures.coefficient_from_spec(args.coeff)
    nsg = nerve_two_group(xm, args.depth)
    ids = check_simplicial_identities(nsg)
    iso = check_level_iso(nsg, xm)
    report = {
        "ok": ids["ok"] and iso["ok"],
        "coefficients": xm.name,
        "levels": ids["levels"],
        "identities": ids["ok"],
        "string_model": iso["ok"],
        "failures": ids["failures"] + iso["failures"],
    }
    _say(f"nerve levels {ids['levels']}")
    _emit(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cech2",
        description="H^1 with coefficients in a finite strict 2-group, by exhaustive enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate groups, coefficients, complexes, cocycles")
    p.add_argument("--coeff", help="coefficient spec or crossed-module JSON file")
    p.add_argument("--space", help="builtin space name or complex JSON file")
    p.add_argument("--cocycle", help="cocycle JSON file (needs --space and --coeff)")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("h1", help="classify H^1(space, coefficients)")
    p.add_argument("--space", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_h1)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--space")
    p.add_argument("--coeff")
    p.add_argument("--ses", help="JSON file describing a short exact sequence")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--depth", type=int, default=nerve.DEFAULT_LEVEL_CAP, help="nerve truncation level")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nerve", help="build a truncated nerve and check it")
    p.add_argument("--coeff", required=True)
    p.add_argument("--depth", type=int, default=nerve.DEFAULT_LEVEL_CAP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_nerve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "budget", 1) < 1:
            raise MalformedInput(f"--budget must be at least 1, got {args.budget}")
        if getattr(args, "depth", 0) < 0:
            raise MalformedInput(f"--depth must be at least 0, got {args.depth}")
        return args.func(args)
    except BudgetExceeded as e:
        _say(f"budget exceeded: {e}")
        _emit({"ok": False, "error": "budget", "detail": str(e)}, getattr(args, "out", None))
        return EXIT_BUDGET
    except (json.JSONDecodeError, UnicodeDecodeError, OSError, KeyError, MalformedInput) as e:
        _say(f"input error: {e}")
        _emit({"ok": False, "error": "input", "detail": str(e)}, getattr(args, "out", None))
        return EXIT_INPUT
    except CechError as e:
        _say(f"validation failure: {type(e).__name__}: {e}")
        _emit(
            {"ok": False, "error": type(e).__name__, "detail": str(e)},
            getattr(args, "out", None),
        )
        return EXIT_FAIL
    except MemoryError as e:
        detail = str(e) or "out of memory"  # reported once the traceback, and the arrays it holds, are dropped
    _say(f"out of memory: {detail}")
    _emit({"ok": False, "error": "memory", "detail": detail}, getattr(args, "out", None))
    return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
