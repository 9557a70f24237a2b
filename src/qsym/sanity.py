"""Numeric spot check of certificate conclusions at graph automorphisms.

Independently of the step replay in ``verifier``, ``sanity_eval`` evaluates
the zero-product conclusions of a certificate, the only ones that can
fail there, at randomly sampled automorphisms of the graph, each taken
as a permutation matrix.  It shares no code with
the proof search in ``prover``, so ``qsym verify --fuzz`` loads only
this module, the checker and what they import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import Word, gen
from .autgroup import automorphism_group
from .certificate import ZERO_PRODUCT, Certificate
from .graphs import Graph


@dataclass(frozen=True)
class SanityReport:
    """Counts from evaluating certificate conclusions at automorphisms."""

    trials: int
    checks: int
    failures: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def sanity_eval(g: Graph, cert: Certificate, trials: int, seed: int = 0) -> SanityReport:
    """Spot-check conclusions under random automorphism evaluations.

    For each sampled automorphism, every zero-product claim must
    evaluate to 0.  Failures are reported with the conclusion index and
    the offending permutation; any failure means a bug, since a
    verified certificate holds in every permutation representation.
    Raises ValueError for negative ``trials``, a conclusion naming a
    vertex outside g, or a graph whose automorphisms automorphism_group
    refuses to list.

    A commutator evaluates to 0 at every permutation matrix: a word is
    1 exactly when each of its letters u[i,j] has sigma(j) = i, so a
    word and its reverse hold at the same sigma.  A commutation
    conclusion therefore cannot fail here and is not evaluated, though
    every conclusion is counted in ``checks``.

    At sigma only the n generators u[sigma(j),j] are 1.  A zero-product
    claim is the word u[i,j]u[k,l] with coefficient 1 against zero, so
    the index files each zero-product conclusion under its word, built
    from its five fields (kind, i, j, k, l) with no polynomial.  A
    trial then looks up the n^2 ordered pairs of those generators, a
    generator paired with itself included: every conclusion filed there
    evaluates to 1 and fails, and every other one evaluates to 0.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    group = automorphism_group(g)
    n = g.n
    by_word: dict[Word, list[int]] = {}
    for idx, (kind, i, j, k, l) in enumerate(cert.conclusions):
        if max(i, j, k, l) > n:
            r, c = (i, j) if max(i, j) > n else (k, l)
            raise ValueError(f"generator u[{r},{c}] out of range for n={n}")
        if kind == ZERO_PRODUCT:
            by_word.setdefault((gen(i, j), gen(k, l)), []).append(idx)
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        sigma = rng.choice(group.elements)
        ones = [gen(i, j) for j, i in enumerate(sigma, 1)]
        hits = [idx for a in ones for b in ones for idx in by_word.get((a, b), ())]
        failures.extend((idx, sigma) for idx in sorted(hits))
    return SanityReport(
        trials=trials, checks=trials * len(cert.conclusions), failures=tuple(failures)
    )
