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
from typing import NamedTuple

from .autgroup import automorphism_group
from .certificate import ZERO_PRODUCT, Certificate
from .graphs import Graph


class SanityReport(NamedTuple):
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
    claim is the word u[i,j]u[k,l] with coefficient 1 against zero, and
    its word is fixed by its quadruple, so the index files each
    zero-product conclusion under its integer quadruple (i, j, k, l),
    with no generator or polynomial built.  A trial takes sigma's ones
    as integer pairs (sigma(j), j) and looks up the n^2 quadruples that
    two of them make, a pair with itself included: every conclusion
    filed there evaluates to 1 and fails, and every other one evaluates
    to 0.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    group = automorphism_group(g)
    n = g.n
    by_quad: dict[tuple[int, int, int, int], list[int]] = {}
    for idx, (kind, i, j, k, l) in enumerate(cert.conclusions):
        if i > n or j > n or k > n or l > n:
            r, c = (i, j) if max(i, j) > n else (k, l)
            raise ValueError(f"generator u[{r},{c}] out of range for n={n}")
        if kind == ZERO_PRODUCT:
            by_quad.setdefault((i, j, k, l), []).append(idx)
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        sigma = rng.choice(group.elements)
        ones = [(i, j) for j, i in enumerate(sigma, 1)]
        hits = [idx for a in ones for b in ones for idx in by_quad.get(a + b, ())]
        failures.extend((idx, sigma) for idx in sorted(hits))
    return SanityReport(
        trials=trials, checks=trials * len(cert.conclusions), failures=tuple(failures)
    )
