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

A conclusion is held as a Conclusion, a validated NamedTuple of its
kind and its quadruple.  The loader builds it straight from the JSON
object through the validating constructor; the prover alone builds its
own records directly, from the kind constants and the scope's integers,
which need no check.  The writer fills one text template with its
fields, and the verifier and the spot check read its integers without
building a polynomial; only Conclusion.claim does, for callers that
want the equation.

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

import itertools
import json
import os
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

from .algebra import COL, ROW, Poly, PolyParseError, format_poly, gen, parse_poly
from .graphs import Graph
from .wire import MalformedCertificate, decode, read

CERT_VERSION = 9

COMMUTES = "commutes"
ZERO_PRODUCT = "zero_product"

FULL = "full"
QA5 = "qa5"
SCOPES = (FULL, QA5)


def scope_quadruples(g: Graph, scope: str) -> Iterable[tuple[int, int, int, int]]:
    """The quadruples (i, j, k, l) a certificate of this scope concludes
    on, in lexicographic order: all of them, made one at a time, or for
    QA5 those with i adjacent to k and j adjacent to l."""
    if scope == FULL:
        return itertools.product(g.vertices(), repeat=4)
    edges = g.directed_edges()
    return sorted((i, j, k, l) for i, k in edges for j, l in edges)


def scope_size(g: Graph, scope: str) -> int:
    """How many quadruples scope_quadruples(g, scope) gives, counted
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


class _ConclusionFields(NamedTuple):
    kind: str
    i: int
    j: int
    k: int
    l: int


class Conclusion(_ConclusionFields):
    """Classification of one ordered generator pair (u[i,j], u[k,l]).

    A conclusion cites nothing: the verifier settles it by the orbit of
    its quadruple under the group that the certificate's automorphism
    table generates.

    A validated record: a tuple of the five fields, so the verifier
    unpacks it in one step.  The constructor, ``_make`` and so
    ``_replace`` check the fields, and refuse a bad one with
    MalformedCertificate; the loader builds every record through them.
    The prover builds its own with ``tuple.__new__``, skipping the
    checks, since it takes each kind from COMMUTES and ZERO_PRODUCT and
    each index from the ints that scope_quadruples yields.
    """

    __slots__ = ()

    def __new__(cls, kind, i, j, k, l):
        # Fast path for exact ints, the only indices a JSON decoder
        # gives; anything else gets the field-by-field checks, which
        # name the first bad field.
        if not (
            (kind == COMMUTES or kind == ZERO_PRODUCT)
            and type(i) is type(j) is type(k) is type(l) is int
            and i >= 1 and j >= 1 and k >= 1 and l >= 1
        ):
            if kind not in (COMMUTES, ZERO_PRODUCT):
                raise MalformedCertificate(f"unknown conclusion kind {kind!r}")
            for v in (i, j, k, l):
                if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                    raise MalformedCertificate(
                        f"conclusion index must be a positive integer, got {v!r}"
                    )
        return tuple.__new__(cls, (kind, i, j, k, l))

    @classmethod
    def _make(cls, iterable) -> "Conclusion":
        return cls(*iterable)

    def claim(self) -> tuple[Poly, Poly]:
        """The equation this conclusion asserts: u[i,j]u[k,l] equals
        u[k,l]u[i,j], or zero.  :func:`claim_quadruple` inverts it."""
        a, b = gen(self.i, self.j), gen(self.k, self.l)
        lhs = Poly._from_dict({(a, b): 1})
        if self.kind == COMMUTES:
            return lhs, Poly._from_dict({(b, a): 1})
        return lhs, Poly.zero()


def claim_quadruple(lhs: Poly, rhs: Poly) -> Optional[tuple[str, int, int, int, int]]:
    """The (kind, i, j, k, l) of the conclusion whose claim is lhs = rhs,
    or None when no conclusion claims it.

    lhs must be the word u[i,j]u[k,l] alone, with coefficient 1, and rhs
    either zero (a zero product) or the reversed word alone, with
    coefficient 1 (a commutation).  Distinct (kind, quadruple) give
    distinct claims, so this inverts :meth:`Conclusion.claim` exactly.
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
    must cover.  Building one, also by dataclasses.replace, makes all
    three sequences tuples, and raises MalformedCertificate unless it is
    well formed, as the module says.
    """

    graph_text: str
    scope: str
    automorphisms: tuple[tuple[int, ...], ...]
    steps: tuple[ProofStep, ...]
    conclusions: tuple[Conclusion, ...]

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
        conclusions = tuple(self.conclusions)
        if not set(map(type, conclusions)) <= {Conclusion}:  # one pass in C over 10^4
            idx = next(i for i, c in enumerate(conclusions) if type(c) is not Conclusion)
            raise MalformedCertificate(f"conclusion {idx} must be a Conclusion")
        object.__setattr__(self, "automorphisms", table)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "conclusions", conclusions)


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedCertificate(f"{what} must be an integer, got {value!r}")
    return value


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


def _parse_poly_field(text, what: str, parsed: dict[str, Poly]) -> Poly:
    """Parse one polynomial field, once per distinct text.

    ``parsed`` maps each text already parsed in this certificate to its
    Poly, which is shared by every field with that text.
    """
    if not isinstance(text, str):
        raise MalformedCertificate(f"{what} must be a string")
    p = parsed.get(text)
    if p is None:
        try:
            p = parse_poly(text)
        except PolyParseError as exc:
            raise MalformedCertificate(f"{what}: {exc}") from None
        parsed[text] = p
    return p


def _header_to_dict(cert: Certificate) -> dict:
    """Every field of cert's JSON object but the conclusions, in order."""
    # The prover shares Poly objects between steps; format each object
    # once.  Keys stay valid because cert keeps every object alive.
    texts: dict[int, str] = {}

    def text(p: Poly) -> str:
        t = texts.get(id(p))
        if t is None:
            t = texts[id(p)] = format_poly(p)
        return t

    return {
        "version": CERT_VERSION,
        "graph_text": cert.graph_text,
        "scope": cert.scope,
        "automorphisms": [list(images) for images in cert.automorphisms],
        "steps": [
            {
                "id": s.id,
                "lhs": text(s.lhs),
                "rhs": text(s.rhs),
                "justification": _justification_to_dict(s.justification),
            }
            for s in cert.steps
        ],
    }


def certificate_to_dict(cert: Certificate) -> dict:
    return {**_header_to_dict(cert), "conclusions": [c._asdict() for c in cert.conclusions]}


_CONCLUSION_FIELDS = frozenset(Conclusion._fields)


def _conclusion_from_dict(cd, idx: int) -> Conclusion:
    if not isinstance(cd, dict) or cd.keys() != _CONCLUSION_FIELDS:
        raise MalformedCertificate(
            f"conclusion {idx} must be an object with exactly the fields kind, i, j, k, l"
        )
    try:
        return Conclusion(cd["kind"], cd["i"], cd["j"], cd["k"], cd["l"])
    except MalformedCertificate as exc:
        raise MalformedCertificate(f"conclusion {idx}: {exc}") from None


def certificate_from_dict(d) -> Certificate:
    # The version comes first, so that a file of another version is
    # refused by name rather than for its fields.
    if not isinstance(d, dict) or "version" not in d:
        raise MalformedCertificate("certificate must be an object with a 'version'")
    version = _require_int(d["version"], "version")
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
    parsed: dict[str, Poly] = {}
    for position, sd in enumerate(d["steps"]):
        _require_keys(sd, {"id", "lhs", "rhs", "justification"}, "step")
        steps.append(
            ProofStep(
                id=sd["id"],
                lhs=_parse_poly_field(sd["lhs"], f"step {position} lhs", parsed),
                rhs=_parse_poly_field(sd["rhs"], f"step {position} rhs", parsed),
                justification=_justification_from_dict(sd["justification"]),
            )
        )
    return Certificate(
        graph_text=graph_text,
        scope=d["scope"],
        automorphisms=automorphisms,
        steps=steps,
        conclusions=[_conclusion_from_dict(cd, idx) for idx, cd in enumerate(d["conclusions"])],
    )


# One conclusion's compact JSON text, fields in Conclusion order.  Its
# kind is one of two plain names and its indices are ints, not bools,
# so %s and %d write what json.dumps would.
_CONCLUSION_JSON = '{"kind":"%s","i":%d,"j":%d,"k":%d,"l":%d}'


def dumps_certificate(cert: Certificate) -> str:
    """Deterministic compact JSON text for a certificate: the text of
    json.dumps(certificate_to_dict(cert), separators=(",", ":")), with
    each conclusion written from one template rather than encoded from
    a dict."""
    header = json.dumps(_header_to_dict(cert), separators=(",", ":"))
    conclusions = ",".join([_CONCLUSION_JSON % c for c in cert.conclusions])
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
