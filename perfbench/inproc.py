"""The petersen-reject workload, run in-process through qsym's public functions.

Calls go through attributes of the ``qsym`` package, so that
``spans.instrument`` sees them in a traced run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import qsym
from qsym import MalformedCertificate

import mutants

# Two antithetic pairs of mutants and one pair of each text corruption:
# about 20 s of checking on Petersen, nearly the same for every seed.
MUTANT_PAIRS = 2
CORRUPTION_PAIRS = 1


@dataclass
class RejectCase:
    graph: qsym.Graph
    cert: qsym.Certificate
    mutants: list
    text: str = ""
    corruptions: tuple = ()


def setup(seed: int) -> tuple[RejectCase, float]:
    """Graph, proof and seeded single-step mutants; also returns the
    seconds the proof took."""
    g = qsym.petersen()
    t0 = time.perf_counter()
    cert = qsym.prove_no_quantum_symmetry(g)
    prove_s = time.perf_counter() - t0
    rng = random.Random(seed)
    muts = [
        mutants.junk_term_mutant(cert, g.n, f, rng)
        for f in mutants.antithetic_fractions(rng, MUTANT_PAIRS)
    ]
    return RejectCase(g, cert, muts), prove_s


def add_texts(case: RejectCase, seed: int) -> None:
    """Serialise once and derive the seeded text corruptions."""
    case.text = qsym.dumps_certificate(case.cert)
    rng = random.Random(seed + 1)
    case.corruptions = tuple(
        make(case.text, f)
        for make in (mutants.truncated, mutants.extra_field)
        for f in mutants.antithetic_fractions(rng, CORRUPTION_PAIRS)
    )


def refused(text: str) -> bool:
    """True when loads_certificate refuses the text as malformed."""
    try:
        qsym.loads_certificate(text)
    except MalformedCertificate:
        return True
    return False


def accept(case: RejectCase, ops) -> float:
    """Verify the clean certificate; returns the seconds to the verdict."""
    t0 = time.perf_counter()
    valid = qsym.verify_certificate(case.graph, case.cert).valid
    elapsed = time.perf_counter() - t0
    ops.check(valid, "clean certificate accepted")
    return elapsed


def reject(case: RejectCase, ops) -> float:
    """Reject every mutant at its own step and refuse every corrupted
    text; returns the seconds to reach all these verdicts."""
    t0 = time.perf_counter()
    for mutant, sid in case.mutants:
        report = qsym.verify_certificate(case.graph, mutant)
        ops.check(
            not report.valid and report.first_failure == sid,
            f"mutant at step {sid} rejected there (got {report.first_failure})",
        )
    for i, text in enumerate(case.corruptions):
        ops.check(refused(text), f"text corruption {i} refused as malformed")
    return time.perf_counter() - t0
