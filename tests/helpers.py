"""Shared test utilities: an independent big graph, certificate
mutation, and a Poly reference for the verdicts on conclusions.

The mutation operators only produce changes that genuinely alter the
meaning of the chosen step, conclusion or automorphism table entry, so
a correct checker must reject every mutant at exactly that place.  A
Combine is checked modulo local reduction: lhs - rhs, less the sum of
c * d_s over its terms (s, c), must have local_reduce zero.  That
reduction drops every word that rewrites to zero, so a change to a side
can leave it at zero; every Combine operator, a side change, a junk
term, a retargeted term or a flipped coefficient, is guarded so that
the mutant's difference no longer reduces to zero.  A Swap cites a step
under two automorphism table indices: a new step, or the two indices
swapped, is guarded so that the citation no longer gives the claim, and
a table index past the end is refused whatever the claim.  A Swap is
checked as an exact equality with its left side, the renamed pair
reversed; that reversal kills no term and is injective on the
polynomials it accepts, so any change to either side is rejected, and a
new position is guarded so that the reversed left side differs from
the right or cannot be formed.

A conclusion is its kind and quadruple alone, checked for its place in
the scope's quadruple order and for its claim: moving, dropping or
duplicating one puts a wrong quadruple at a known position, and a
flipped kind is guarded so that the claim no longer holds by the
reference, conclusion_follows.  The conclusion operators edit copies of
the certificate's five conclusion columns and give a Conclusions view
of them, so that no mutant builds a record per conclusion.  A table
entry that is not an automorphism is refused whatever cites it.

A step operator takes the graph, the step, the certificate whose steps
and table it may cite, and a random source, as the verifier's
_check_step does.  The reference for a renamed claim is relabel on
polynomials, not the verifier's renaming of integer quadruples, and
the reference group is the closure of the table under composition,
not the verifier's pair orbits.
"""

from __future__ import annotations

import dataclasses

from qsym import (
    COL,
    ROW,
    Certificate,
    Combine,
    ExpandUnity,
    LemmaCom,
    Poly,
    Swap,
    ZERO_PRODUCT,
    COMMUTES,
    claim_quadruple,
    expand_unity,
    from_edge_list,
    gen,
    is_automorphism,
    local_reduce,
    star,
    swap_pair,
)
from qsym.certificate import Conclusions
from algebra_reference import claim, relabel


def hoffman_singleton():
    """The unique srg(50, 7, 0, 1): five pentagons, five pentagrams,
    and cross edges p(h,i) ~ q(k, hk+i mod 5)."""

    def p(h, i):
        return 5 * h + i + 1

    def q(k, j):
        return 25 + 5 * k + j + 1

    edges = set()
    for h in range(5):
        for i in range(5):
            edges.add(tuple(sorted((p(h, i), p(h, (i + 1) % 5)))))
            edges.add(tuple(sorted((q(h, i), q(h, (i + 2) % 5)))))
            for k in range(5):
                edges.add(tuple(sorted((p(h, i), q(k, (h * k + i) % 5)))))
    return from_edge_list(50, sorted(edges))


def _with_coeff(p: Poly, w, c) -> Poly:
    terms = dict(p.terms)
    if c:
        terms[w] = c
    else:
        del terms[w]
    return Poly(terms)


def _pick_word(rng, p: Poly):
    words = sorted(p.terms, key=lambda w: (len(w), w))
    return words[rng.randrange(len(words))]


def _double_coeff(g, step, cert, rng, side):
    p = getattr(step, side)
    if p.is_zero:
        return None
    w = _pick_word(rng, p)
    return dataclasses.replace(step, **{side: _with_coeff(p, w, 2 * p.terms[w])})


def _tweak_index(g, step, cert, rng, side):
    p = getattr(step, side)
    if p.is_zero:
        return None
    w = _pick_word(rng, p)
    pos = rng.randrange(len(w))
    old = w[pos]
    row, col = old
    if rng.random() < 0.5:
        row = row % g.n + 1
    else:
        col = col % g.n + 1
    new_gen = gen(row, col)
    if new_gen == old:
        return None
    w2 = w[:pos] + (new_gen,) + w[pos + 1 :]
    c = p.terms[w]
    p2 = _with_coeff(p, w, 0)
    p2 = _with_coeff(p2, w2, p2.terms.get(w2, 0) + c)
    return dataclasses.replace(step, **{side: p2})


def _drop_term(g, step, cert, rng, side):
    p = getattr(step, side)
    if p.is_zero:
        return None
    w = _pick_word(rng, p)
    return dataclasses.replace(step, **{side: _with_coeff(p, w, 0)})


def _add_junk_term(g, step, cert, rng, side):
    # A one-generator word: certificates built here never contain any,
    # so it can neither cancel nor match a recomputation, and it is
    # irreducible, so local reduction keeps it.
    p = getattr(step, side)
    w = (gen(rng.randrange(g.n) + 1, rng.randrange(g.n) + 1),)
    if w in p.terms:
        return None
    return dataclasses.replace(step, **{side: _with_coeff(p, w, 1)})


def _tweak_expand_params(g, step, cert, rng):
    just = step.justification
    choices = [
        dataclasses.replace(just, position=just.position + 1),
        dataclasses.replace(just, index=just.index % g.n + 1),
        dataclasses.replace(just, side=COL if just.side == ROW else ROW),
    ]
    if just.position > 0:
        choices.append(dataclasses.replace(just, position=just.position - 1))
    just2 = choices[rng.randrange(len(choices))]
    if just2 == just:
        return None
    try:
        if expand_unity(step.lhs, just2.position, just2.index, just2.side, g.n) == step.rhs:
            return None
    except ValueError:
        pass
    return dataclasses.replace(step, justification=just2)


def _renamed_claim(cert, cite):
    """The claim of step s renamed under the table entries r and c, where
    cite is (s, r, c), by relabel; None when the table lacks an entry."""
    step, rows, cols = cite
    table = cert.automorphisms
    if max(rows, cols) >= len(table):
        return None
    ref = cert.steps[step]
    rho, kappa = table[rows], table[cols]
    return relabel(ref.lhs, rho, kappa), relabel(ref.rhs, rho, kappa)


def _swapped(cert, cite, lhs, position):
    """lhs with the pair reversed at position whose commutation the
    citation gives, or None where the verifier refuses the citation."""
    claim = _renamed_claim(cert, cite)
    cited = None if claim is None else claim_quadruple(*claim)
    if cited is None or cited[0] != COMMUTES:
        return None
    _, a, b, c, d = cited
    try:
        return swap_pair(lhs, position, gen(a, b), gen(c, d))
    except ValueError:
        return None


def _citation(just):
    return just.step, just.rows, just.cols


def _tweak_swap_position(g, step, cert, rng):
    just = step.justification
    position = just.position + (1 if just.position == 0 or rng.random() < 0.5 else -1)
    if _swapped(cert, _citation(just), step.lhs, position) == step.rhs:
        return None
    return dataclasses.replace(
        step, justification=dataclasses.replace(just, position=position)
    )


def _retarget(rng, step, cert, bad):
    """A random earlier step for which ``bad`` says the check must fail."""
    if step.id < 2:
        return None
    for _ in range(40):
        ref = cert.steps[rng.randrange(step.id)]
        if bad(ref):
            return ref.id
    return None


def _diff(s):
    return s.lhs - s.rhs


def _combine_follows(g, cert, step) -> bool:
    """Whether a Combine step's claim follows from the steps it cites."""
    d = _diff(step)
    for s, c in step.justification.terms:
        d = d - c * _diff(cert.steps[s])
    return local_reduce(g, d).is_zero


def _combine_guarded(op):
    """op, made on a Combine step, leaving out mutants that still follow."""

    def guarded(g, step, cert, rng):
        mutated = op(g, step, cert, rng)
        if mutated is None or _combine_follows(g, cert, mutated):
            return None
        return mutated

    guarded.__name__ = f"{op.__name__}_combine"
    return guarded


def _with_term(step, idx, term):
    terms = list(step.justification.terms)
    terms[idx] = term
    return dataclasses.replace(step, justification=Combine(tuple(terms)))


def _flip_coefficient(g, step, cert, rng):
    terms = step.justification.terms
    if not terms:
        return None
    idx = rng.randrange(len(terms))
    s, c = terms[idx]
    return _with_term(step, idx, (s, -c))


def _retarget_term(g, step, cert, rng):
    terms = step.justification.terms
    if not terms or step.id < 2:
        return None
    idx = rng.randrange(len(terms))
    s, c = terms[idx]
    return _with_term(step, idx, (rng.choice([r for r in range(step.id) if r != s]), c))


def _retarget_lemma(g, step, cert, rng):
    def bad(r):
        return not (
            r.lhs == step.lhs and star(r.rhs) == r.rhs and star(r.lhs) == step.rhs
        )

    ref = _retarget(rng, step, cert, bad)
    if ref is None:
        return None
    return dataclasses.replace(step, justification=LemmaCom(ref))


# Citation operators for swaps: each
# takes a citation (step, rows, cols), the number of steps it may cite,
# the table, whether a citation follows for the same claim, and a random
# source; it returns the mutated citation, or None where it finds none
# that must be refused.


def _retarget_citation(cite, n_steps, table, follows, rng):
    _, rows, cols = cite
    for _ in range(40):
        mutated = (rng.randrange(n_steps), rows, cols)
        if not follows(mutated):
            return mutated
    return None


def _swap_table_indices(cite, n_steps, table, follows, rng):
    # Both entries are automorphisms, so only the renamed claim can
    # catch the swap: require that it differs, which implies rows != cols.
    step, rows, cols = cite
    mutated = (step, cols, rows)
    return None if follows(mutated) else mutated


def _table_index_out_of_range(cite, n_steps, table, follows, rng):
    step, rows, cols = cite
    bad = len(table) + rng.randrange(3)
    return (step, bad, cols) if rng.random() < 0.5 else (step, rows, bad)


CITATION_OPS = [_retarget_citation, _swap_table_indices, _table_index_out_of_range]


def _swap_citation_op(op):
    def step_op(g, step, cert, rng):
        just = step.justification
        mutated = op(
            _citation(just),
            step.id,
            cert.automorphisms,
            lambda cite: _swapped(cert, cite, step.lhs, just.position) == step.rhs,
            rng,
        )
        if mutated is None:
            return None
        return dataclasses.replace(step, justification=Swap(*mutated, just.position))

    step_op.__name__ = f"{op.__name__}_swap"
    return step_op


def _side_op(fn, side):
    def op(g, step, cert, rng):
        return fn(g, step, cert, rng, side)

    op.__name__ = f"{fn.__name__}_{side}"
    return op


_RHS_OPS = [_side_op(f, "rhs") for f in (_double_coeff, _tweak_index, _drop_term)]
_LHS_OPS = [_side_op(f, "lhs") for f in (_double_coeff, _tweak_index, _drop_term)]
_JUNK_RHS = _side_op(_add_junk_term, "rhs")
_SWAP_CITATION_OPS = [_swap_citation_op(op) for op in CITATION_OPS]
_COMBINE_OPS = [
    _combine_guarded(op)
    for op in _RHS_OPS + _LHS_OPS + [_JUNK_RHS, _flip_coefficient, _retarget_term]
]


def eligible_ops(step):
    just = step.justification
    if isinstance(just, ExpandUnity):
        return _RHS_OPS + _LHS_OPS + [_JUNK_RHS, _tweak_expand_params]
    if isinstance(just, Swap):
        return _RHS_OPS + _LHS_OPS + [_JUNK_RHS, _tweak_swap_position] + _SWAP_CITATION_OPS
    if isinstance(just, Combine):
        return _COMBINE_OPS
    if isinstance(just, LemmaCom):
        return _RHS_OPS + _LHS_OPS + [_JUNK_RHS, _retarget_lemma]
    raise AssertionError(f"unknown justification {just!r}")


def closure(table, n):
    """Every element of the group that the permutations of ``table``
    generate, by closing the identity under composition with them."""
    elements = [tuple(range(1, n + 1))]
    seen = set(elements)
    for sigma in elements:  # grows while it is read
        for t in table:
            image = tuple(t[v - 1] for v in sigma)
            if image not in seen:
                seen.add(image)
                elements.append(image)
    return elements


def _key(lhs, rhs):
    return frozenset(lhs.terms.items()), frozenset(rhs.terms.items())


# Certificates by id, kept alive beside the renamed claims of their
# steps, so that an id is never reused while it is a key.
_RENAMED_CLAIMS = {}


def renamed_step_claims(cert, n):
    """The claim of every step of cert renamed under every pair of
    elements of the table's closure, by relabel, as keys.

    relabel is injective on words and keeps coefficients, so only a step
    whose sides are a one-term and an at most one-term polynomial in
    words of length 2 can be renamed to a conclusion's claim; the other
    steps are passed over, for speed alone.
    """
    cached = _RENAMED_CLAIMS.get(id(cert))
    if cached is not None and cached[0] is cert:
        return cached[1]
    group = closure(cert.automorphisms, n)
    claims = set()
    for s in cert.steps:
        words = [*s.lhs.terms, *s.rhs.terms]
        if len(s.lhs.terms) != 1 or len(s.rhs.terms) > 1 or any(len(w) != 2 for w in words):
            continue
        for rho in group:
            for kappa in group:
                claims.add(_key(relabel(s.lhs, rho, kappa), relabel(s.rhs, rho, kappa)))
    _RENAMED_CLAIMS[id(cert)] = (cert, claims)
    return claims


def conclusion_follows(g, cert, c) -> bool:
    """Whether c's claim holds by the reference, its place aside: some
    step's claim renamed under two elements of the table's closure is
    c's claim, or the claim's difference has local_reduce zero."""
    lhs, rhs = claim(c)
    if _key(lhs, rhs) in renamed_step_claims(cert, g.n):
        return True
    return local_reduce(g, lhs - rhs).is_zero


def _replaced(cert, idx, c):
    columns = cert.conclusions.columns
    return Conclusions(*(col[:idx] + (v,) + col[idx + 1 :] for col, v in zip(columns, c))), idx


def _if_false(g, cert, idx, c):
    if conclusion_follows(g, cert, c):
        return None
    return _replaced(cert, idx, c)


def _flip_kind(g, cert, idx, rng):
    # A zero product also commutes, so commutes in place of a reduced
    # zero_product still follows; the guard leaves such flips out.
    c = cert.conclusions[idx]
    kind = ZERO_PRODUCT if c.kind == COMMUTES else COMMUTES
    return _if_false(g, cert, idx, c._replace(kind=kind))


def _move_quadruple(g, cert, idx, rng):
    c = cert.conclusions[idx]
    field = "ijkl"[rng.randrange(4)]
    value = getattr(c, field) % g.n + 1
    return _replaced(cert, idx, c._replace(**{field: value}))


def _drop_conclusion(g, cert, idx, rng):
    # The next quadruple moves into place idx, or the list falls short
    # there.
    return Conclusions(*(col[:idx] + col[idx + 1 :] for col in cert.conclusions.columns)), idx


def _duplicate_conclusion(g, cert, idx, rng):
    columns = cert.conclusions.columns
    return Conclusions(*(col[: idx + 1] + col[idx:] for col in columns)), idx + 1


CONCLUSION_OPS = [_flip_kind, _move_quadruple, _drop_conclusion, _duplicate_conclusion]


def _non_automorphism_entry(g, cert, idx, rng):
    # Swap two images: still a permutation, refused only for not
    # preserving adjacency.
    images = list(cert.automorphisms[idx])
    a, b = rng.sample(range(len(images)), 2)
    images[a], images[b] = images[b], images[a]
    if is_automorphism(g, images):
        return None
    table = list(cert.automorphisms)
    table[idx] = tuple(images)
    return tuple(table)


def mutate_certificate(g, cert: Certificate, rng):
    """Randomly corrupt one step, conclusion or automorphism table
    entry; returns (mutant, where, op label).  ``where`` is where a
    correct checker must reject the mutant, as VerificationReport.location
    names it: "step s", "conclusion c" or "automorphism a"."""
    sites = ["step", "conclusion"] + (["automorphism"] if cert.automorphisms else [])
    while True:
        site = sites[rng.randrange(len(sites))]
        if site == "step":
            step = cert.steps[rng.randrange(len(cert.steps))]
            ops = eligible_ops(step)
            op = ops[rng.randrange(len(ops))]
            mutated = op(g, step, cert, rng)
            if mutated is None:
                continue
            new_steps = list(cert.steps)
            new_steps[step.id] = mutated
            mutant = dataclasses.replace(cert, steps=tuple(new_steps))
            return mutant, f"step {step.id}", op.__name__
        if site == "conclusion":
            idx = rng.randrange(len(cert.conclusions))
            op = CONCLUSION_OPS[rng.randrange(len(CONCLUSION_OPS))]
            found = op(g, cert, idx, rng)
            if found is None:
                continue
            conclusions, where = found
            mutant = dataclasses.replace(cert, conclusions=conclusions)
            return mutant, f"conclusion {where}", op.__name__
        idx = rng.randrange(len(cert.automorphisms))
        table = _non_automorphism_entry(g, cert, idx, rng)
        if table is None:
            continue
        mutant = dataclasses.replace(cert, automorphisms=table)
        return mutant, f"automorphism {idx}", _non_automorphism_entry.__name__
