"""Seeded corruptions for the reject workloads.

The bench keeps its own generator rather than importing the test
suite's mutation helpers, which later changes to the certificate will
keep extending; the workload must not change with them.

Positions are drawn as fractions of the step list (or of the text), so
the workload keeps its shape when the certificate shrinks.  They come
in antithetic pairs (f, 1 - f): the work a checker does before it
reaches a fault grows with the fault's position, and the pair's
positions always sum to one list length, so the total work per pass is
nearly the same for every seed.
"""

from __future__ import annotations

import dataclasses

from qsym import Certificate, u


def antithetic_fractions(rng, pairs: int) -> list[float]:
    """2 * pairs fractions; pair i takes f from the i-th stratum of [0, 1/2)."""
    out = []
    for i in range(pairs):
        f = (i + rng.random()) / (2 * pairs)
        out += [f, 1.0 - f]
    return out


def position(fraction: float, length: int) -> int:
    return min(int(fraction * length), length - 1)


def junk_term_mutant(
    cert: Certificate, n: int, fraction: float, rng
) -> tuple[Certificate, int]:
    """Add a one-generator term to the rhs of the step at ``fraction``.

    Certificates built by qsym hold no one-generator words, and such a
    word is irreducible and outside the rational span of any two claim
    differences, so no rule can accept the changed claim: a correct
    checker rejects the mutant at exactly this step.  ``n`` is the
    graph's vertex count.  Returns the mutant and the mutated step id.
    """
    sid = position(fraction, len(cert.steps))
    step = cert.steps[sid]
    junk = u(rng.randrange(n) + 1, rng.randrange(n) + 1)
    steps = list(cert.steps)
    steps[sid] = dataclasses.replace(step, rhs=step.rhs + junk)
    return dataclasses.replace(cert, steps=tuple(steps)), sid


def truncated(text: str, fraction: float) -> str:
    """A proper prefix of a JSON document, which no JSON parser accepts."""
    return text[: position(fraction, len(text))]


STEP_MARKER = '{"id":'


def extra_field(text: str, fraction: float) -> str:
    """Valid JSON whose first step object at or after ``fraction`` of the
    text carries an unknown field, which the loader must refuse."""
    at = text.find(STEP_MARKER, position(fraction, len(text)))
    if at < 0:
        at = text.rindex(STEP_MARKER)
    return text[: at + 1] + '"unexpected":0,' + text[at + 1 :]
