"""Spans and counts recorded by the benchmark around calls into qsym.

While ``instrument(tracer)`` is active, every reference that a loaded
qsym module holds to one of the layer functions in ``LAYERS`` calls a
wrapper instead, so calls made by qsym itself (the CLI, ``save_certificate``,
``prove_no_quantum_symmetry`` calling ``check_moore_conditions``) are
recorded too and nest under their caller.  Each span has an id, a name,
a parent id, the id of its root span, and start and end times from
``time.perf_counter``; a call that raises records the exception's type
name as ``error``.  Spans live in memory and are written out once.

The verifier's per-step checks are far too many to record one span
each (132,400 on Petersen), so ``qsym.verifier._check_step`` is wrapped
as well and sums calls and time per justification type into the
enclosing verify span's ``rules`` field.  Buckets are keyed by the
type's name, so a new rule shows up without a bench change.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import qsym
from qsym import verifier

# qsym function -> span name.
LAYERS = {
    "check_moore_conditions": "graphs.check_moore_conditions",
    "automorphism_group": "autgroup.automorphism_group",
    "prove_no_quantum_symmetry": "prover.prove",
    "dumps_certificate": "certificate.dumps",
    "loads_certificate": "certificate.loads",
    "verify_certificate": "verifier.verify",
    "sanity_eval": "prover.sanity_eval",
}


class Tracer:
    """Spans and counts of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else len(self.spans),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": with_self_times(self.spans), "counts": self.counts}, fh)


def with_self_times(spans: list[dict]) -> list[dict]:
    """Copies of the spans with ``self``: the duration minus what child
    spans and per-rule checks cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
        own[s["id"]] -= sum(secs for _, secs in s.get("rules", {}).values())
    return [dict(s, self=own[s["id"]]) for s in spans]


def _count(tr: Tracer, fn_name: str, result) -> None:
    if fn_name == "prove_no_quantum_symmetry":
        tr.counts["prover.steps"] += len(result.steps)
        for s in result.steps:
            tr.counts[f"prover.steps.{type(s.justification).__name__}"] += 1
    elif fn_name == "dumps_certificate":
        tr.counts["certificate.bytes"] += len(result)
    elif fn_name == "verify_certificate":
        tr.counts["verifier.steps_checked"] += result.steps_checked
    elif fn_name == "sanity_eval":
        tr.counts["prover.sanity_checks"] += result.checks


def _wrap(tr: Tracer, fn_name: str, fn):
    span_name = LAYERS[fn_name]

    def wrapper(*args, **kwargs):
        with tr.span(span_name) as rec:
            if fn_name == "verify_certificate":
                rec["rules"] = {}
            result = fn(*args, **kwargs)
        _count(tr, fn_name, result)
        return result

    return wrapper


@contextmanager
def instrument(tr: Tracer):
    """Route qsym's layer calls through span-recording wrappers."""
    originals = {fn_name: getattr(qsym, fn_name) for fn_name in LAYERS}
    wrappers = {id(fn): _wrap(tr, fn_name, fn) for fn_name, fn in originals.items()}
    check_step = verifier._check_step

    def timed_check(g, steps, step):
        t0 = time.perf_counter()
        try:
            return check_step(g, steps, step)
        finally:
            rules = tr._stack[-1]["rules"]
            entry = rules.setdefault(type(step.justification).__name__, [0, 0.0])
            entry[0] += 1
            entry[1] += time.perf_counter() - t0

    wrappers[id(check_step)] = timed_check
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qsym" or name.startswith("qsym.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
