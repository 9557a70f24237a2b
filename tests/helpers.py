"""Shared test utilities: an independent big graph and certificate mutation.

The mutation operator only produces changes that genuinely alter the
meaning of the chosen step, so a correct checker must reject every
mutant at exactly that step.  A Substitution is checked as one exact
equality, lhs - rhs == d_base + sign * d_using, so any change to either
side changes lhs - rhs and is rejected; flipping the sign or retargeting
a citation is guarded to produce a combination that differs from the
claim.  A Transport is checked as an exact equality with the renamed
sides of the cited step: a new citation, or rows and cols swapped, is
guarded so that the renamed claim differs, and a rows permutation that
is not an automorphism is refused whatever the claim.  The left side of
a relation application stays excluded: a killed term can change there
without changing the result.
"""

from __future__ import annotations

import dataclasses

from qsym import (
    COL,
    ROW,
    Certificate,
    Comm,
    ExpandUnity,
    LemmaCom,
    LocalReduce,
    Permutation,
    Poly,
    ProofStep,
    RelationApplication,
    Substitution,
    Transport,
    apply_relation,
    expand_unity,
    from_edge_list,
    gen,
    is_automorphism,
    relabel,
    star,
    u,
)


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


def _double_coeff(g, step, steps, rng, side):
    p = getattr(step, side)
    if p.is_zero:
        return None
    w = _pick_word(rng, p)
    return dataclasses.replace(step, **{side: _with_coeff(p, w, 2 * p.terms[w])})


def _tweak_index(g, step, steps, rng, side):
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


def _drop_term(g, step, steps, rng, side):
    p = getattr(step, side)
    if p.is_zero:
        return None
    w = _pick_word(rng, p)
    return dataclasses.replace(step, **{side: _with_coeff(p, w, 0)})


def _add_junk_term(g, step, steps, rng, side):
    # A one-generator word: certificates built here never contain any,
    # so it can neither cancel nor match a recomputation, and it is
    # irreducible, outside every two-step rational span.
    p = getattr(step, side)
    w = (gen(rng.randrange(g.n) + 1, rng.randrange(g.n) + 1),)
    if w in p.terms:
        return None
    return dataclasses.replace(step, **{side: _with_coeff(p, w, 1)})


def _tweak_expand_params(g, step, steps, rng):
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


def _tweak_relation_position(g, step, steps, rng):
    just = step.justification
    position = just.position + (1 if just.position == 0 or rng.random() < 0.5 else -1)
    try:
        if apply_relation(step.lhs, just.relation, position) == step.rhs:
            return None
    except ValueError:
        pass
    return dataclasses.replace(
        step, justification=dataclasses.replace(just, position=position)
    )


def _retarget(rng, step, steps, bad):
    """A random earlier step for which ``bad`` says the check must fail."""
    if step.id < 2:
        return None
    for _ in range(40):
        ref = steps[rng.randrange(step.id)]
        if bad(ref):
            return ref.id
    return None


def _diff(s):
    return s.lhs - s.rhs


def _flip_sign(g, step, steps, rng):
    just = step.justification
    using = steps[just.using]
    if using.lhs == using.rhs:
        return None
    # The flip moves the combination by 2 * d_using, which is nonzero.
    return dataclasses.replace(
        step, justification=dataclasses.replace(just, sign=-just.sign)
    )


def _retarget_substitution(g, step, steps, rng):
    just = step.justification
    field = "base" if rng.random() < 0.5 else "using"

    def bad(r):
        cited = {"base": steps[just.base], "using": steps[just.using], field: r}
        combo = _diff(cited["base"]) + just.sign * _diff(cited["using"])
        return combo != _diff(step)

    ref = _retarget(rng, step, steps, bad)
    if ref is None:
        return None
    return dataclasses.replace(
        step, justification=dataclasses.replace(just, **{field: ref})
    )


def _retarget_lemma(g, step, steps, rng):
    def bad(r):
        return not (
            r.lhs == step.lhs and star(r.rhs) == r.rhs and star(r.lhs) == step.rhs
        )

    ref = _retarget(rng, step, steps, bad)
    if ref is None:
        return None
    return dataclasses.replace(step, justification=LemmaCom(ref))


def _renamed_claim_differs(step, ref, rows, cols):
    return relabel(ref.lhs, rows, cols) != step.lhs or relabel(ref.rhs, rows, cols) != step.rhs


def _retarget_transport(g, step, steps, rng):
    just = step.justification
    ref = _retarget(
        rng, step, steps, lambda r: _renamed_claim_differs(step, r, just.rows, just.cols)
    )
    if ref is None:
        return None
    return dataclasses.replace(
        step, justification=dataclasses.replace(just, step=ref)
    )


def _non_automorphism_rows(g, step, steps, rng):
    # Swap two images: still a permutation, refused only for not
    # preserving adjacency.
    just = step.justification
    rows = list(just.rows)
    a, b = rng.sample(range(len(rows)), 2)
    rows[a], rows[b] = rows[b], rows[a]
    if is_automorphism(g, Permutation(tuple(rows))):
        return None
    return dataclasses.replace(
        step, justification=dataclasses.replace(just, rows=tuple(rows))
    )


def _swap_rows_cols(g, step, steps, rng):
    # Both are automorphisms, so only the renamed claim can catch the
    # swap: require that it differs, which implies rows != cols.
    just = step.justification
    if not _renamed_claim_differs(step, steps[just.step], just.cols, just.rows):
        return None
    return dataclasses.replace(
        step, justification=dataclasses.replace(just, rows=just.cols, cols=just.rows)
    )


def _retarget_comm(g, step, steps, rng):
    rel = step.justification.relation
    want_lhs = u(rel.row1, rel.col1) * u(rel.row2, rel.col2)
    want_rhs = u(rel.row2, rel.col2) * u(rel.row1, rel.col1)
    ref = _retarget(
        rng, step, steps, lambda r: r.lhs != want_lhs or r.rhs != want_rhs
    )
    if ref is None:
        return None
    rel2 = dataclasses.replace(rel, certified_by=ref)
    just2 = dataclasses.replace(step.justification, relation=rel2)
    return dataclasses.replace(step, justification=just2)


def _side_op(fn, side):
    def op(g, step, steps, rng):
        return fn(g, step, steps, rng, side)

    op.__name__ = f"{fn.__name__}_{side}"
    return op


_RHS_OPS = [_side_op(f, "rhs") for f in (_double_coeff, _tweak_index, _drop_term)]
_LHS_OPS = [_side_op(f, "lhs") for f in (_double_coeff, _tweak_index, _drop_term)]
_JUNK_RHS = _side_op(_add_junk_term, "rhs")


def eligible_ops(step):
    just = step.justification
    if isinstance(just, LocalReduce):
        return _RHS_OPS + [_JUNK_RHS]
    if isinstance(just, ExpandUnity):
        return _RHS_OPS + _LHS_OPS + [_JUNK_RHS, _tweak_expand_params]
    if isinstance(just, RelationApplication):
        ops = _RHS_OPS + [_JUNK_RHS, _tweak_relation_position]
        if isinstance(just.relation, Comm):
            ops.append(_retarget_comm)
        return ops
    if isinstance(just, Substitution):
        return _RHS_OPS + _LHS_OPS + [_JUNK_RHS, _flip_sign, _retarget_substitution]
    if isinstance(just, LemmaCom):
        return _RHS_OPS + _LHS_OPS + [_JUNK_RHS, _retarget_lemma]
    if isinstance(just, Transport):
        return _RHS_OPS + _LHS_OPS + [
            _JUNK_RHS,
            _retarget_transport,
            _non_automorphism_rows,
            _swap_rows_cols,
        ]
    raise AssertionError(f"unknown justification {just!r}")


def mutate_certificate(g, cert: Certificate, rng):
    """Randomly corrupt one step; returns (mutant, step id, op label)."""
    steps = cert.steps
    while True:
        step = steps[rng.randrange(len(steps))]
        ops = eligible_ops(step)
        op = ops[rng.randrange(len(ops))]
        mutated = op(g, step, steps, rng)
        if mutated is None:
            continue
        new_steps = list(steps)
        new_steps[step.id] = mutated
        mutant = Certificate(
            cert.version, cert.graph_digest, tuple(new_steps), cert.conclusions
        )
        return mutant, step.id, op.__name__
