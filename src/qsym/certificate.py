"""Proof certificates: justified equation steps and their conclusions.

A certificate is a list of steps, each claiming that two polynomials
are equal in the quotient algebra of a fixed graph, a table of graph
automorphisms, and a list of conclusions naming the generator
quadruples whose products commute or vanish, one per quadruple of the
certificate's scope.  Each step carries a justification small enough to
be rechecked from scratch.  A conclusion carries only its kind and its
quadruple: the verifier settles it on the orbit of that quadruple under
the group the table generates, where a step claims it or its words
reduce to it.  The verifier module rechecks all of it without trusting
the producer.

Conclusions are held as columns, a kind column and one for each of i, j,
k and l, in a Conclusions view that builds its Conclusion records only
when read; only this module knows that layout.  A record is plain data;
a view checks its columns in whole passes, taking records one at a time
only to name the first bad one.  The prover gives a kind column on
scope_columns, the loader the JSON objects' columns; the writer, the
verifier and the spot check read whole columns, and none of them builds
a polynomial.

A step's justification is one of four rules: expand_unity, swap,
combine and lemma_com.  The rule table, _RULES, is where a rule's wire
form is defined.  A swap cites a step and two table entries, and the
position of the pair it reverses: the commutation that step claims,
renamed.  A combine cites signed steps.  Each rule's class checks its
own fields when it is built, and the loader passes it the JSON values
unchecked: every index is an int, not a bool, an expand_unity index is
positive and every other index nonnegative, a side is "row" or "col",
and a combine's terms are (step, 1 or -1) pairs.

A Certificate is well formed however it is built: its scope is known,
its table holds tuples of ints, its steps are ProofSteps with Poly
sides, justified by one of the four rules, ids 0, 1, ... in order and
citing only earlier steps, and its conclusions are Conclusions.  So
the verifier checks only the proof.

Serialization is JSON with polynomials in their canonical text syntax,
format version CERT_VERSION, which belongs to the codec alone: the
writer stamps it and the loader refuses files of any other version.
qsym.wire reads and decodes the text, and defines MalformedCertificate;
certificate_from_dict builds the model from the decoded value.
A certificate names its graph by the graph's canonical text, the
string format_graph_text returns, and the checker compares that text
for exact equality.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple, Optional, Union

from .algebra import COL, ROW, Poly, PolyParseError, format_poly, parse_poly
from .graphs import Graph
from .wire import MalformedCertificate, decode, read

CERT_VERSION = 9

COMMUTES = "commutes"
ZERO_PRODUCT = "zero_product"
_KINDS = {COMMUTES: COMMUTES, ZERO_PRODUCT: ZERO_PRODUCT}

FULL = "full"
QA5 = "qa5"
SCOPES = (FULL, QA5)


def scope_columns(g: Graph, scope: str) -> tuple[tuple[int, ...], ...]:
    """The quadruples (i, j, k, l) a certificate of this scope concludes
    on, in lexicographic order, as the four tuples of their i, j, k and
    l: all of them, or for QA5 those with i adjacent to k and j adjacent
    to l.  In the full scope column d holds each vertex n**(3 - d) times
    running, and that run n**d times over."""
    if scope == FULL:
        n, vs = g.n, g.vertices()
        return tuple(tuple(chain(*(repeat(v, n ** (3 - d)) for v in vs))) * n**d for d in range(4))
    edges = g.directed_edges()
    return tuple(zip(*sorted((i, j, k, l) for i, k in edges for j, l in edges))) or ((),) * 4


def scope_size(g: Graph, scope: str) -> int:
    """How many quadruples scope_columns(g, scope) holds, counted
    without making them."""
    if scope == FULL:
        return g.n**4
    return len(g.directed_edges()) ** 2


@dataclass(frozen=True, slots=True)
class ExpandUnity:
    """rhs is lhs with a row or column unity sum inserted at a position."""

    position: int
    index: int
    side: str

    def __post_init__(self):
        _check_index(self.position, "expand_unity position")
        _check_index(self.index, "expand_unity index", least=1)
        if self.side not in (ROW, COL):
            raise MalformedCertificate(
                f"expand_unity side must be {ROW!r} or {COL!r}, got {self.side!r}"
            )


@dataclass(frozen=True, slots=True)
class Swap:
    """rhs is lhs with a generator pair reversed at ``position`` in every
    word: the pair whose commutation step ``step`` claims, renamed under
    the automorphisms at table indices ``rows`` and ``cols`` as for a
    Conclusion."""

    step: int
    rows: int
    cols: int
    position: int

    def __post_init__(self):
        for field in self.__match_args__:
            _check_index(getattr(self, field), f"swap {field}")


@dataclass(frozen=True, slots=True)
class Combine:
    """lhs - rhs, less the sum of c times the difference lhs - rhs of
    step s over the pairs (s, c) of ``terms``, has local_reduce zero.
    Each c is 1 or -1; with no terms, both sides share a normal form.
    Any sequence of pairs is taken, and stored as a tuple of tuples."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        terms = self.terms
        if not isinstance(terms, (list, tuple)) or not all(
            isinstance(t, (list, tuple)) and len(t) == 2 for t in terms
        ):
            raise MalformedCertificate(
                "combine terms must be an array of [step, coefficient] pairs"
            )
        for s, c in terms:
            _check_index(s, "combine step")
            if type(c) is not int or c not in (1, -1):
                raise MalformedCertificate(f"combine coefficient must be 1 or -1, got {c!r}")
        object.__setattr__(self, "terms", tuple(map(tuple, terms)))


@dataclass(frozen=True, slots=True)
class LemmaCom:
    """From an earlier step X = Y with Y star-invariant, conclude X = star(X)."""

    step: int

    def __post_init__(self):
        _check_index(self.step, "lemma_com step")


Justification = Union[ExpandUnity, Swap, Combine, LemmaCom]

# The rule table: each justification's rule name and the earlier step
# ids it cites.  Its wire form is the rule name, then its fields in
# class order, which the class checks when it is built.
_RULES = {
    ExpandUnity: ("expand_unity", lambda j: ()),
    Swap: ("swap", lambda j: (j.step,)),
    Combine: ("combine", lambda j: tuple(s for s, _ in j.terms)),
    LemmaCom: ("lemma_com", lambda j: (j.step,)),
}
_RULE_CLASSES = {name: cls for cls, (name, _) in _RULES.items()}


@dataclass(frozen=True, slots=True)
class ProofStep:
    """One checked equation: claim (lhs, rhs) with its justification."""

    id: int
    lhs: Poly
    rhs: Poly
    justification: Justification

    def __post_init__(self):
        _check_index(self.id, "step id")


def _check_index(value, what: str, least: int = 0) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "positive" if least else "nonnegative"
        raise MalformedCertificate(f"{what} must be a {kind} integer, got {value!r}")


class Conclusion(NamedTuple):
    """Classification of one ordered generator pair (u[i,j], u[k,l]).

    A conclusion cites nothing: the verifier settles it by the orbit of
    its quadruple under the group that the certificate's automorphism
    table generates.

    A plain record of the five fields, checked only where it enters a
    certificate, by a Conclusions view.
    """

    kind: str
    i: int
    j: int
    k: int
    l: int


def _checked_columns(kinds, quad, ints_ok: bool) -> tuple:
    """(kinds, *quad) as tuples, each kind the constant it equals, checked to
    hold known kinds and positive int indices in a few passes in C (the kinds
    only if ints_ok); records are walked only to name the first bad one."""
    columns = tuple(map(tuple, (kinds, *quad)))
    if len(set(map(len, columns))) > 1:
        raise MalformedCertificate("conclusion columns must be of one length")
    kinds, *quad = columns
    try:
        kinds = tuple(map(_KINDS.__getitem__, kinds))
        ok = ints_ok or set(map(type, chain(*quad))) <= {int} and min(chain(*quad), default=1) >= 1
    except (KeyError, TypeError):  # an unknown or unhashable kind
        ok = False
    if not ok:  # the walk also takes int subclasses
        for idx, (kind, *indices) in enumerate(zip(*columns)):
            if kind not in (COMMUTES, ZERO_PRODUCT):
                raise MalformedCertificate(f"conclusion {idx}: unknown conclusion kind {kind!r}")
            for v in indices:
                _check_index(v, f"conclusion {idx}: conclusion index", least=1)
    return (kinds, *quad)


class Conclusions(Sequence):
    """A read-only sequence of Conclusion records held as five tuples, ``columns``:
    the kinds, then i, j, k and l.  len, indexing, slicing (to a tuple), iteration,
    == and hash behave as on the tuple of the records.  Building one refuses
    columns of different lengths, and a bad kind or index, naming the record."""

    __slots__ = ("columns",)

    def __init__(self, kinds, i, j, k, l):
        self.columns = _checked_columns(kinds, (i, j, k, l), False)

    @classmethod
    def on_scope(cls, kinds, quad) -> Conclusions:
        """The view of kinds on quad, columns from scope_columns, whose ints need no check."""
        view = cls.__new__(cls)
        view.columns = _checked_columns(kinds, quad, True)
        return view

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, idx):
        fields = [c[idx] for c in self.columns]
        if isinstance(idx, slice):
            return tuple(map(tuple.__new__, repeat(Conclusion), zip(*fields)))
        return tuple.__new__(Conclusion, fields)

    def __iter__(self):
        return map(tuple.__new__, repeat(Conclusion), zip(*self.columns))

    def __eq__(self, other):
        if type(other) is Conclusions:
            return self.columns == other.columns
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Conclusions({tuple(self)!r})"


def claim_quadruple(lhs: Poly, rhs: Poly) -> Optional[tuple[str, int, int, int, int]]:
    """The (kind, i, j, k, l) of the conclusion whose claim is lhs = rhs,
    or None when no conclusion claims it.

    lhs must be the word u[i,j]u[k,l] alone, with coefficient 1, and rhs
    either zero (a zero product) or the reversed word alone, with
    coefficient 1 (a commutation).  Distinct (kind, quadruple) give
    distinct claims, so this inverts the claim of a conclusion exactly.
    """
    if len(lhs.terms) != 1:
        return None
    ((w, c),) = lhs.terms.items()
    if c != 1 or len(w) != 2:
        return None
    a, b = w
    if not rhs.terms:
        kind = ZERO_PRODUCT
    elif rhs.terms == {(b, a): 1}:
        kind = COMMUTES
    else:
        return None
    return kind, a.row, a.col, b.row, b.col


@dataclass(frozen=True)
class Certificate:
    """Steps and conclusions for one graph.

    ``graph_text`` is that graph's canonical text, as format_graph_text
    writes it.  ``automorphisms`` holds the one-line images of the vertex
    permutations that swaps cite by index, and that generate the group
    whose orbits the conclusions are settled on;
    ``scope`` is FULL or QA5 and fixes which quadruples the conclusions
    must cover.  Building one, also by dataclasses.replace, makes the
    table and steps tuples and Conclusion records a Conclusions view,
    and raises MalformedCertificate unless it is well formed.
    """

    graph_text: str
    scope: str
    automorphisms: tuple[tuple[int, ...], ...]
    steps: tuple[ProofStep, ...]
    conclusions: Conclusions

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise MalformedCertificate(f"scope must be one of {list(SCOPES)}, got {self.scope!r}")
        table = tuple(self.automorphisms)
        for idx, images in enumerate(table):
            if type(images) is not tuple or not set(map(type, images)) <= {int}:
                raise MalformedCertificate(f"automorphism {idx} must be a tuple of ints")
        steps = tuple(self.steps)
        for position, step in enumerate(steps):
            if not (type(step) is ProofStep and type(step.lhs) is type(step.rhs) is Poly):
                raise MalformedCertificate(f"step {position} must be a ProofStep with Poly sides")
            if step.id != position:
                raise MalformedCertificate(
                    f"step ids must be sequential from 0: found {step.id} at position {position}"
                )
            rule = _RULES.get(type(step.justification))
            if rule is None:
                raise MalformedCertificate(
                    f"step {position} justification must be one of {[c.__name__ for c in _RULES]}"
                )
            for ref in rule[1](step.justification):
                if ref >= position:
                    raise MalformedCertificate(
                        f"step {position} references step {ref}, which is not earlier"
                    )
        conclusions = self.conclusions
        if type(conclusions) is not Conclusions:
            records = tuple(conclusions)
            if not set(map(type, records)) <= {Conclusion}:  # one pass in C
                idx = next(i for i, c in enumerate(records) if type(c) is not Conclusion)
                raise MalformedCertificate(f"conclusion {idx} must be a Conclusion")
            conclusions = Conclusions(*(tuple(zip(*records)) or ((),) * 5))
        object.__setattr__(self, "automorphisms", table)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "conclusions", conclusions)


def _require_keys(d: dict, expected: set, what: str):
    if not isinstance(d, dict):
        raise MalformedCertificate(f"{what} must be an object")
    if set(d) != expected:
        raise MalformedCertificate(
            f"{what} must have exactly the fields {sorted(expected)}, got {sorted(d)}"
        )


def _justification_to_dict(just: Justification) -> dict:
    fields = {f: getattr(just, f) for f in type(just).__match_args__}
    if "terms" in fields:  # JSON arrays, as the loader reads them
        fields["terms"] = [list(term) for term in fields["terms"]]
    return {"rule": _RULES[type(just)][0], **fields}


def _justification_from_dict(d) -> Justification:
    if not isinstance(d, dict) or "rule" not in d:
        raise MalformedCertificate("justification must be an object with a 'rule'")
    rule = d["rule"]
    cls = _RULE_CLASSES.get(rule) if isinstance(rule, str) else None
    if cls is None:
        raise MalformedCertificate(f"unknown justification rule {rule!r}")
    fields = cls.__match_args__
    _require_keys(d, {"rule", *fields}, f"{rule} justification")
    return cls(*(d[f] for f in fields))


def _parse_poly_field(text, what: str) -> Poly:
    if not isinstance(text, str):
        raise MalformedCertificate(f"{what} must be a string")
    try:
        return parse_poly(text)
    except PolyParseError as exc:
        raise MalformedCertificate(f"{what}: {exc}") from None


def _header_to_dict(cert: Certificate) -> dict:
    """Every field of cert's JSON object but the conclusions, in order."""
    return {
        "version": CERT_VERSION,
        "graph_text": cert.graph_text,
        "scope": cert.scope,
        "automorphisms": [list(images) for images in cert.automorphisms],
        "steps": [
            {
                "id": s.id,
                "lhs": format_poly(s.lhs),
                "rhs": format_poly(s.rhs),
                "justification": _justification_to_dict(s.justification),
            }
            for s in cert.steps
        ],
    }


def certificate_to_dict(cert: Certificate) -> dict:
    return {**_header_to_dict(cert), "conclusions": [c._asdict() for c in cert.conclusions]}


_CONCLUSION_FIELDS = frozenset(Conclusion._fields)


def _conclusions_from_list(objs: list) -> Conclusions:
    """A view of the objects' columns, which Conclusions checks.  Each object must be
    a dict of exactly the five fields; the first that is not is refused after the
    view of the objects before it, so that an earlier bad kind or index is named first."""
    if set(map(type, objs)) <= {dict} and set(map(len, objs)) <= {5}:  # passes in C
        try:
            return Conclusions(*(tuple(map(itemgetter(f), objs)) for f in Conclusion._fields))
        except KeyError:  # five fields, one of them misnamed
            pass
    end = next(
        (idx for idx, cd in enumerate(objs)
         if not isinstance(cd, dict) or cd.keys() != _CONCLUSION_FIELDS),
        len(objs),
    )
    view = Conclusions(*(tuple(map(itemgetter(f), objs[:end])) for f in Conclusion._fields))
    if end < len(objs):
        raise MalformedCertificate(
            f"conclusion {end} must be an object with exactly the fields kind, i, j, k, l"
        )
    return view


def certificate_from_dict(d) -> Certificate:
    # The version comes first, so that a file of another version is
    # refused by name rather than for its fields.
    if not isinstance(d, dict) or "version" not in d:
        raise MalformedCertificate("certificate must be an object with a 'version'")
    version = d["version"]
    if isinstance(version, bool) or not isinstance(version, int):
        raise MalformedCertificate(f"version must be an integer, got {version!r}")
    if version != CERT_VERSION:
        raise MalformedCertificate(
            f"unsupported certificate version {version}, expected {CERT_VERSION}"
        )
    _require_keys(
        d,
        {"version", "graph_text", "scope", "automorphisms", "steps", "conclusions"},
        "certificate",
    )
    graph_text = d["graph_text"]
    if not isinstance(graph_text, str):
        raise MalformedCertificate("graph_text must be a string")
    if not isinstance(d["automorphisms"], list):
        raise MalformedCertificate("automorphisms must be an array")
    # An entry that is no array of ints is refused by Certificate.
    automorphisms = [tuple(x) if isinstance(x, list) else x for x in d["automorphisms"]]
    if not isinstance(d["steps"], list) or not isinstance(d["conclusions"], list):
        raise MalformedCertificate("steps and conclusions must be arrays")
    steps = []
    for position, sd in enumerate(d["steps"]):
        _require_keys(sd, {"id", "lhs", "rhs", "justification"}, "step")
        steps.append(
            ProofStep(
                id=sd["id"],
                lhs=_parse_poly_field(sd["lhs"], f"step {position} lhs"),
                rhs=_parse_poly_field(sd["rhs"], f"step {position} rhs"),
                justification=_justification_from_dict(sd["justification"]),
            )
        )
    return Certificate(
        graph_text=graph_text,
        scope=d["scope"],
        automorphisms=automorphisms,
        steps=steps,
        conclusions=_conclusions_from_list(d["conclusions"]),
    )


# A conclusion's JSON text up to its i, by kind.  A kind is a plain name and an
# index an int, not a bool, so these texts and %d write what json.dumps would.
_KIND_JSON = {kind: '{"kind":"%s","i":' % kind for kind in _KINDS}


class _IntText(dict):
    def __missing__(self, v: int) -> str:  # v's decimal text, made once per v
        return self.setdefault(v, "%d" % v)


def dumps_certificate(cert: Certificate) -> str:
    """Deterministic compact JSON text for a certificate: the text of
    json.dumps(certificate_to_dict(cert), separators=(",", ":")), with
    the conclusions written from their columns in one join rather than
    encoded from dicts."""
    header = json.dumps(_header_to_dict(cert), separators=(",", ":"))
    kinds, *quad = cert.conclusions.columns
    i, j, k, l = (map(_IntText().__getitem__, c) for c in quad)
    pieces = (i, repeat(',"j":'), j, repeat(',"k":'), k, repeat(',"l":'), l, repeat("},"))
    parts = zip(map(_KIND_JSON.__getitem__, kinds), *pieces)
    conclusions = "".join(chain.from_iterable(parts))[:-1]  # no comma after the last
    return f'{header[:-1]},"conclusions":[{conclusions}]}}'


def loads_certificate(text: str) -> Certificate:
    return certificate_from_dict(decode(text))


def save_certificate(cert: Certificate, path) -> None:
    """Write cert to path whole or not at all: the text goes to a new
    file beside path, which then replaces it, or on failure is removed."""
    text = dumps_certificate(cert) + "\n"
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_certificate(path) -> Certificate:
    return certificate_from_dict(read(path))
