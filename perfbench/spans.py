"""Spans around the library calls a workload makes, and their self times.

A span is ``[name, start, end, parent, op]``: the layer it times, its
``perf_counter`` bounds, the index of the enclosing span (or None) and the
label of the op it belongs to.  Spans live in a list in memory and are
written out once, when the run ends.  A span's self time is its duration
minus the time its direct children cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from cech2 import cohomology, complexes, crossed_modules, exactness, fixtures, groups, nerve


class Tracer:
    """Records spans; ``op`` labels the spans begun while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced


def self_times(spans, first: int = 0) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts per span name, over spans[first:]."""
    covered = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    seconds, calls = defaultdict(float), defaultdict(int)
    for sid in range(first, len(spans)):
        name, start, end, _, _ = spans[sid]
        seconds[name] += end - start - covered[sid]
        calls[name] += 1
    return dict(seconds), dict(calls)


def write_spans(path, spans) -> None:
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}))


def report_bytes(cls) -> bytes:
    """What a user of ``cech2 h1`` receives: the report as sorted JSON."""
    return json.dumps(cls.to_report(), sort_keys=True).encode()


# (Api attribute, layer, public function); layers are named <module>.<what>
CALLS = (
    ("standard_space", "complexes.build", complexes.standard_space),
    ("coefficient_from_spec", "fixtures.coeff_build", fixtures.coefficient_from_spec),
    ("builtin_group", "fixtures.coeff_build", fixtures.builtin_group),
    ("inversion_action", "fixtures.coeff_build", groups.inversion_action),
    ("hat_construction", "fixtures.coeff_build", crossed_modules.hat_construction),
    ("z2z4z2_group_ses", "fixtures.coeff_build", fixtures.z2z4z2_group_ses),
    ("z2z4z2_discrete_ses", "fixtures.coeff_build", fixtures.z2z4z2_discrete_ses),
    ("report", "fixtures.report", report_bytes),
    ("classify_h1", "cohomology.classify", cohomology.classify_h1),
    ("enumerate_cocycles", "cohomology.enumerate", cohomology.enumerate_cocycles),
    ("class_of", "cohomology.class_of", lambda cls, c: cls.class_of(c)),
    ("abelian_oracle_h2", "cohomology.oracle", cohomology.abelian_oracle_h2),
    ("holonomy_oracle", "cohomology.oracle", cohomology.holonomy_oracle),
    ("cohomologous_check", "cohomology.witness_search", cohomology.cohomologous_check),
    ("verify_lemma2", "exactness.lemma2", exactness.verify_lemma2),
    ("verify_lemma3", "exactness.lemma3", exactness.verify_lemma3),
    ("nerve_two_group", "nerve.build", nerve.nerve_two_group),
    ("check_simplicial_identities", "nerve.identities", nerve.check_simplicial_identities),
    ("check_level_iso", "nerve.level_iso", nerve.check_level_iso),
    ("check_bar_multiplication", "nerve.bar", nerve.check_bar_multiplication),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer, _ in CALLS))


class Api:
    """The public functions a workload calls, each in a span when traced.

    Calls the library makes internally are not split out: ``verify_lemma2``
    includes the classifications it runs.  Without a tracer every attribute
    is the library function itself.
    """

    def __init__(self, tracer: Tracer | None = None):
        for attr, layer, fn in CALLS:
            setattr(self, attr, tracer.wrap(layer, fn) if tracer else fn)
