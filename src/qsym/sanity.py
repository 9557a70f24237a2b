"""Numeric spot check of certificate conclusions at graph automorphisms.

Independently of the step replay in ``verifier``, ``sanity_eval`` evaluates
every conclusion of a certificate at randomly sampled automorphisms of
the graph, each taken as a permutation matrix.  It shares no code with
the proof search in ``prover``, so ``qsym verify --fuzz`` loads only
this module, the checker and what they import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import Word, gen
from .autgroup import automorphism_group
from .certificate import COMMUTES, Certificate
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
    evaluate to 0 and every commutation claim's commutator must
    evaluate to 0.  Failures are reported with the conclusion index and
    the offending permutation; any failure means a bug, since a
    verified certificate holds in every permutation representation.
    Raises ValueError for negative ``trials``, a conclusion naming a
    vertex outside g, or a graph whose automorphisms automorphism_group
    refuses to list.

    A commutator evaluates to 0 at every permutation matrix: a word is
    1 exactly when each of its letters u[i,j] has sigma(j) = i, so a
    word and its reverse hold at the same sigma.  The spot check can
    therefore only catch false zero-product conclusions; commutations
    are evaluated all the same, so every conclusion is counted.

    At sigma a word is 1 exactly when each of its letters u[i,j] has
    sigma(j) = i, and only the n generators u[sigma(j),j] do.  Every
    claim is the word u[i,j]u[k,l] with coefficient 1, against its
    reverse with coefficient 1 or against zero, so the index is built
    from each conclusion's (kind, i, j, k, l) with no polynomial: the
    word is filed with +1, and a commutation's reverse with -1.  A
    trial then looks up the n^2 ordered pairs of those generators, a
    generator paired with itself included, and visits only the terms
    filed there.  Every other term is 0.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    group = automorphism_group(g)
    n = g.n
    by_word: dict[Word, list[tuple[int, int]]] = {}
    for idx, (kind, i, j, k, l, *_) in enumerate(cert.conclusions):
        if max(i, j, k, l) > n:
            r, c = (i, j) if max(i, j) > n else (k, l)
            raise ValueError(f"generator u[{r},{c}] out of range for n={n}")
        a, b = gen(i, j), gen(k, l)
        by_word.setdefault((a, b), []).append((idx, 1))
        if kind == COMMUTES:
            by_word.setdefault((b, a), []).append((idx, -1))
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        sigma = rng.choice(group.elements)
        ones = [gen(i, j) for j, i in enumerate(sigma, 1)]
        totals: dict[int, int] = {}
        for a in ones:
            for b in ones:
                for idx, coeff in by_word.get((a, b), ()):
                    totals[idx] = totals.get(idx, 0) + coeff
        failures.extend((idx, sigma) for idx in sorted(totals) if totals[idx])
    return SanityReport(
        trials=trials, checks=trials * len(cert.conclusions), failures=tuple(failures)
    )
