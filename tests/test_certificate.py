import dataclasses
import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym import (
    COMMUTES,
    FULL,
    ZERO_PRODUCT,
    Certificate,
    Combine,
    Conclusion,
    ExpandUnity,
    LemmaCom,
    MalformedCertificate,
    Poly,
    ProofStep,
    Swap,
    certificate_from_dict,
    certificate_to_dict,
    claim_quadruple,
    cycle,
    dumps_certificate,
    format_graph_text,
    load_certificate,
    loads_certificate,
    monomial,
    petersen,
    save_certificate,
    star,
    u,
)
from algebra_reference import relabel


# Three automorphisms of C5.
ROTATION = (2, 3, 4, 5, 1)
REFLECTION = (5, 4, 3, 2, 1)
IDENTITY = (1, 2, 3, 4, 5)


def _sample_cert():
    g = cycle(5)
    x = monomial(((1, 1), (2, 2)))
    y = relabel(x, ROTATION, REFLECTION)
    steps = (
        ProofStep(0, x, x, Combine(())),
        ProofStep(1, x, x, ExpandUnity(0, 3, "row")),
        ProofStep(2, x, x, Swap(0, 2, 2, 0)),
        ProofStep(3, x, x, Swap(1, 2, 2, 1)),
        ProofStep(4, x, x, Combine(((0, 1), (2, 1)))),
        ProofStep(5, x, star(x), LemmaCom(0)),
        ProofStep(6, u(1, 2) - u(2, 1), monomial((), 2), Swap(5, 2, 2, 2)),
        ProofStep(7, x, x, Swap(3, 2, 2, 0)),
        ProofStep(8, x, x, Combine(((4, 1), (7, -1), (1, 1)))),
        ProofStep(9, y, star(y), Swap(5, 0, 1, 0)),
    )
    conclusions = (
        Conclusion(COMMUTES, 1, 1, 2, 2),
        Conclusion(ZERO_PRODUCT, 1, 1, 1, 2),
        Conclusion(COMMUTES, 2, 5, 3, 4),
    )
    return Certificate(
        format_graph_text(g), FULL, (ROTATION, REFLECTION, IDENTITY), steps, conclusions
    )


@pytest.mark.parametrize("graph, cert_fixture", [("petersen_graph", "petersen_full_cert"), ("c5_graph", "c5_full_cert")])
def test_proved_certificate_carries_the_graph_text(graph, cert_fixture, request):
    g, cert = request.getfixturevalue(graph), request.getfixturevalue(cert_fixture)
    assert cert.graph_text == format_graph_text(g)
    assert certificate_to_dict(cert)["graph_text"] == format_graph_text(g)


@pytest.mark.parametrize("value", [None, 5, ["5 5\n"], {"text": "5 5\n"}])
def test_graph_text_must_be_a_string(c5_full_cert, value):
    d = dict(certificate_to_dict(c5_full_cert), graph_text=value)
    with pytest.raises(MalformedCertificate, match="^graph_text must be a string$"):
        certificate_from_dict(d)


def test_round_trip_all_justification_kinds():
    cert = _sample_cert()
    again = certificate_from_dict(certificate_to_dict(cert))
    assert again == cert
    assert loads_certificate(dumps_certificate(cert)) == cert


def test_save_load_round_trip(tmp_path):
    cert = _sample_cert()
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    assert load_certificate(path) == cert


def test_dumps_deterministic(c5_full_cert):
    assert dumps_certificate(c5_full_cert) == dumps_certificate(c5_full_cert)


@pytest.mark.parametrize("cert_fixture", ["c5_full_cert", "petersen_qa5_cert"])
def test_text_round_trip_is_byte_identical(cert_fixture, request):
    text = dumps_certificate(request.getfixturevalue(cert_fixture))
    assert dumps_certificate(loads_certificate(text)) == text


def test_loads_shares_one_poly_per_distinct_text():
    d = certificate_to_dict(_sample_cert())
    cert = certificate_from_dict(d)
    assert d["steps"][0]["lhs"] == d["steps"][1]["rhs"]
    assert cert.steps[0].lhs is cert.steps[1].rhs


def test_load_rejects_non_ascii_bytes(tmp_path, c5_full_cert):
    path = tmp_path / "cert.json"
    save_certificate(c5_full_cert, path)
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    with pytest.raises(MalformedCertificate, match="not ASCII"):
        load_certificate(path)


def test_polys_round_trip_in_text_form():
    cert = _sample_cert()
    d = certificate_to_dict(cert)
    assert d["steps"][0]["lhs"] == "u[1,1]u[2,2]"
    assert d["steps"][6]["rhs"] == "2"
    assert d["steps"][2]["justification"] == {
        "rule": "swap", "step": 0, "rows": 2, "cols": 2, "position": 0
    }
    # A swap cites a step and two table entries, then the position of
    # the pair.
    swap = d["steps"][9]["justification"]
    assert swap == {"rule": "swap", "step": 5, "rows": 0, "cols": 1, "position": 0}
    assert list(swap) == ["rule", "step", "rows", "cols", "position"]
    # A combine cites [step, coefficient] pairs; with none it is local
    # reduction alone.
    assert d["steps"][0]["justification"] == {"rule": "combine", "terms": []}
    assert d["steps"][8]["justification"] == {
        "rule": "combine", "terms": [[4, 1], [7, -1], [1, 1]]
    }
    assert json.dumps(d["steps"][8]["justification"], separators=(",", ":")) == (
        '{"rule":"combine","terms":[[4,1],[7,-1],[1,1]]}'
    )
    assert d["conclusions"][0]["kind"] == "commutes"
    # A conclusion is its kind and quadruple, and cites nothing.
    assert d["conclusions"][1] == {"kind": "zero_product", "i": 1, "j": 1, "k": 1, "l": 2}
    assert d["conclusions"][2] == {"kind": "commutes", "i": 2, "j": 5, "k": 3, "l": 4}
    assert json.dumps(d["conclusions"][2], separators=(",", ":")) == (
        '{"kind":"commutes","i":2,"j":5,"k":3,"l":4}'
    )
    assert d["automorphisms"] == [list(ROTATION), list(REFLECTION), list(IDENTITY)]


def test_from_dict_rejects_bad_shapes():
    base = certificate_to_dict(_sample_cert())

    def corrupt(mutate):
        d = json.loads(json.dumps(base))
        mutate(d)
        with pytest.raises(MalformedCertificate):
            certificate_from_dict(d)

    corrupt(lambda d: d.pop("version"))
    for old_version in (1, 2, 3, 4, 5, 6, 7):
        corrupt(lambda d: d.update(version=old_version))
    corrupt(lambda d: d.pop("scope"))
    corrupt(lambda d: d.update(scope="partial"))
    corrupt(lambda d: d.pop("automorphisms"))
    for bad_table in (5, [5], [[2, "3", 4, 5, 1]], [[True, 3, 4, 5, 1]], {"0": [1, 2]}):
        corrupt(lambda d: d.update(automorphisms=bad_table))
    corrupt(lambda d: d.update(extra=1))
    corrupt(lambda d: d["steps"][0].pop("lhs"))
    corrupt(lambda d: d["steps"][0].update(id=5))  # ids must be sequential
    corrupt(lambda d: d["steps"][0].update(lhs="u[1"))
    corrupt(lambda d: d["steps"][1]["justification"].update(side="diag"))
    corrupt(lambda d: d["steps"][1]["justification"].update(rule="nonsense"))
    corrupt(lambda d: d["steps"][1]["justification"].pop("index"))
    # A rule is looked up by its wire name alone: a value that is no
    # string, hashable or not, is refused, and so is a class name, even
    # on a step whose fields that class has.
    for bad_rule in ([], ["swap"], {"rule": "swap"}, 0, 1.5, None):
        corrupt(lambda d: d["steps"][1]["justification"].update(rule=bad_rule))
    corrupt(lambda d: d["steps"][0]["justification"].update(rule="Combine"))
    corrupt(lambda d: d["steps"][2]["justification"].update(rule="Swap"))
    # A swap names its step, table entries and position as integers;
    # the version 3 relation rule is gone.
    for field in ("step", "rows", "cols", "position"):
        corrupt(lambda d: d["steps"][2]["justification"].pop(field))
        for bad_value in (True, "0", None, 0.0):
            corrupt(lambda d: d["steps"][2]["justification"].update({field: bad_value}))
    corrupt(lambda d: d["steps"][2]["justification"].update(relation={"kind": "comm"}))
    corrupt(lambda d: d["steps"][2].update(justification={"rule": "relation", "position": 0}))
    # A combine's terms are an array of [step, coefficient] pairs of
    # integers, each coefficient exactly 1 or -1: bool, float and str
    # are refused before the membership test, which would accept True
    # and 1.0.  The version 6 rules and their fields are gone.
    for bad_terms in (None, 5, "0,1", {"0": 1}, [[4, 1], 7], [[4]], [[4, 1, 1]], [{"4": 1}]):
        corrupt(lambda d: d["steps"][8]["justification"].update(terms=bad_terms))
    for bad_step in (True, "4", 4.0, None, [4]):
        corrupt(lambda d: d["steps"][8]["justification"]["terms"][0].__setitem__(0, bad_step))
    for bad_coeff in (True, 1.0, "1", 0, 2, -2, None):
        corrupt(lambda d: d["steps"][8]["justification"]["terms"][1].__setitem__(1, bad_coeff))
    corrupt(lambda d: d["steps"][8]["justification"].pop("terms"))
    for old_field in (dict(sign=1), dict(base=4), dict(using=7)):
        corrupt(lambda d: d["steps"][8]["justification"].update(old_field))
    corrupt(lambda d: d["steps"][0].update(justification={"rule": "local_reduce"}))
    corrupt(
        lambda d: d["steps"][8].update(
            justification={"rule": "substitution", "base": 4, "using": 7, "sign": -1}
        )
    )
    # A swap's rows and cols are table indices, nonnegative integers;
    # that the table has them is the verifier's check.  Arrays of
    # images, as a version 4 transport carried, are refused, and so is
    # the version 5 transport rule and a swap without its citation.
    for bad_rows in (-1, True, "0", 1.0, None, [2, 3, 4, 5, 1], {"1": 2}):
        corrupt(lambda d: d["steps"][9]["justification"].update(rows=bad_rows))
    corrupt(lambda d: d["steps"][9]["justification"].pop("cols"))
    corrupt(lambda d: d["steps"][9]["justification"].update(step="8"))
    corrupt(lambda d: d["steps"][9]["justification"].update(rule="transport"))
    corrupt(lambda d: d["steps"][9]["justification"].pop("position"))
    corrupt(lambda d: [d["steps"][9]["justification"].pop(f) for f in ("rows", "cols")])
    corrupt(lambda d: d["conclusions"][0].update(kind="maybe"))
    # A conclusion has exactly the fields kind, i, j, k and l: the
    # citation of a version 7 conclusion, or any part of it, is refused.
    corrupt(lambda d: d["conclusions"][2].update(step=5, rows=0, cols=1))
    for field in ("step", "rows", "cols"):
        corrupt(lambda d: d["conclusions"][1].update({field: 0}))
    corrupt(lambda d: d["conclusions"][0].update(step=None))
    for field in ("kind", "i", "j", "k", "l"):
        corrupt(lambda d: d["conclusions"][2].pop(field))
    for bad_index in (0, -1, True, "1", 1.0, None):
        corrupt(lambda d: d["conclusions"][2].update(k=bad_index))
    corrupt(lambda d: d["conclusions"][0].update(extra=1))
    corrupt(lambda d: d["conclusions"].append([1, 1, 1, 1]))


def test_loads_refuses_a_step_citing_a_later_step():
    d = certificate_to_dict(_sample_cert())
    d["steps"][2]["justification"]["step"] = 3
    with pytest.raises(MalformedCertificate, match="^step 2 references step 3, which is not earlier$"):
        loads_certificate(json.dumps(d))


# One change of the sample certificate per structural refusal, with the
# message it gives whichever way the certificate is built.
_X = monomial(((1, 1), (2, 2)))


def _justified(just, **bad):
    """A change of the sample's steps to one step justified by just with
    the bad fields, the justification built the way the test builds
    the certificate."""

    def change(how):
        if how == "constructor":
            fields = {f.name: getattr(just, f.name) for f in dataclasses.fields(just)}
            edited = type(just)(**dict(fields, **bad))
        else:
            edited = dataclasses.replace(just, **bad)
        return dict(steps=(ProofStep(0, _X, _X, edited),))

    return change


_STRUCTURE_REFUSALS = [
    pytest.param(
        dict(scope="partial"), "scope must be one of ['full', 'qa5'], got 'partial'", id="scope"
    ),
    pytest.param(
        dict(steps=(ProofStep(0, _X, _X, Combine(())), ProofStep(2, _X, _X, Combine(())))),
        "step ids must be sequential from 0: found 2 at position 1",
        id="ids-out-of-order",
    ),
    pytest.param(
        dict(steps=(ProofStep(0, _X, _X, LemmaCom(0)),)),
        "step 0 references step 0, which is not earlier",
        id="self-reference",
    ),
    pytest.param(
        dict(steps=(ProofStep(0, _X, _X, Swap(1, 0, 0, 0)), ProofStep(1, _X, _X, Combine(())))),
        "step 0 references step 1, which is not earlier",
        id="forward-reference",
    ),
    pytest.param(
        dict(
            steps=(
                ProofStep(0, _X, _X, Combine(())),
                ProofStep(1, _X, _X, Combine(((0, 1), (5, -1)))),
            )
        ),
        "step 1 references step 5, which is not earlier",
        id="dangling-reference",
    ),
    pytest.param(
        dict(steps=(ProofStep(0, _X, _X, Combine(())), ProofStep(1, _X, _X, Combine(((1, 1),))))),
        "step 1 references step 1, which is not earlier",
        id="combine-self-reference",
    ),
    pytest.param(
        dict(steps=(ProofStep(0, _X, _X, Swap(5, 0, 0, 0)),)),
        "step 0 references step 5, which is not earlier",
        id="dangling-swap",
    ),
    pytest.param(
        # A swap that transports its own claim under two table entries.
        dict(steps=(ProofStep(0, _X, _X, Swap(0, 0, 1, 0)),)),
        "step 0 references step 0, which is not earlier",
        id="transport-self-reference",
    ),
    # Records the checker would misread or crash on: a conclusion that is
    # a plain tuple, whatever its fields, a table entry of a non-int, and
    # a step side that is not a Poly.
    pytest.param(
        dict(conclusions=(Conclusion(COMMUTES, 1, 1, 2, 2), ("bogus", 1, 1, 1, 2))),
        "conclusion 1 must be a Conclusion",
        id="conclusion-bogus-kind",
    ),
    pytest.param(
        dict(conclusions=((COMMUTES, 1.0, 1, 2, 2),)),
        "conclusion 0 must be a Conclusion",
        id="conclusion-float-index",
    ),
    pytest.param(
        dict(automorphisms=(ROTATION, (1, 2, 3, 4, 5.0))),
        "automorphism 1 must be a tuple of ints",
        id="table-float-image",
    ),
    pytest.param(
        dict(steps=(ProofStep(0, "x", _X, Combine(())),)),
        "step 0 must be a ProofStep with Poly sides",
        id="step-side-not-a-poly",
    ),
    pytest.param(
        dict(steps=(ProofStep(0, _X, _X, ("combine", ())),)),
        "step 0 justification must be one of ['ExpandUnity', 'Swap', 'Combine', 'LemmaCom']",
        id="justification-of-no-rule",
    ),
    # Justification fields the checker would crash on, would accept
    # although no file can hold them, or would read as an invalid step:
    # each justification refuses its own.
    pytest.param(
        _justified(LemmaCom(0), step=1.0),
        "lemma_com step must be a nonnegative integer, got 1.0",
        id="lemma_com-float-step",
    ),
    pytest.param(
        _justified(Swap(0, 0, 0, 0), step=0.0),
        "swap step must be a nonnegative integer, got 0.0",
        id="swap-float-step",
    ),
    pytest.param(
        _justified(Swap(0, 0, 0, 0), position=-1),
        "swap position must be a nonnegative integer, got -1",
        id="swap-negative-position",
    ),
    pytest.param(
        _justified(ExpandUnity(0, 3, "row"), position=1.0),
        "expand_unity position must be a nonnegative integer, got 1.0",
        id="expand_unity-float-position",
    ),
    pytest.param(
        _justified(ExpandUnity(0, 3, "row"), position=True),
        "expand_unity position must be a nonnegative integer, got True",
        id="expand_unity-bool-position",
    ),
    pytest.param(
        _justified(ExpandUnity(0, 3, "row"), index=2.0),
        "expand_unity index must be a positive integer, got 2.0",
        id="expand_unity-float-index",
    ),
    pytest.param(
        _justified(ExpandUnity(0, 3, "row"), index=0),
        "expand_unity index must be a positive integer, got 0",
        id="expand_unity-zero-index",
    ),
    pytest.param(
        _justified(Combine(()), terms=(("a", 1),)),
        "combine step must be a nonnegative integer, got 'a'",
        id="combine-str-step",
    ),
    pytest.param(
        _justified(Combine(()), terms=((0, 2.5),)),
        "combine coefficient must be 1 or -1, got 2.5",
        id="combine-fractional-coefficient",
    ),
]


@pytest.mark.parametrize("how", ["constructor", "replace"])
@pytest.mark.parametrize("change, message", _STRUCTURE_REFUSALS)
def test_every_way_of_building_a_certificate_checks_its_structure(how, change, message):
    good = _sample_cert()
    fields = {f.name: getattr(good, f.name) for f in dataclasses.fields(good)}
    assert Certificate(**fields) == good
    with pytest.raises(MalformedCertificate, match=f"^{re.escape(message)}$"):
        if callable(change):
            change = change(how)
        if how == "constructor":
            Certificate(**dict(fields, **change))
        else:
            dataclasses.replace(good, **change)


# What `qsym prove` writes, dumps_certificate plus a newline, pinned by
# SHA-256 and length.  A change of format must update these on purpose.
@pytest.mark.parametrize(
    "cert_fixture, sha256, size",
    [
        (
            "petersen_full_cert",
            "8b4e685a1b52c7d7520715de6559adc90af915b1b3beef33339b391bc3c118d4",
            469_634,
        ),
        (
            "c5_full_cert",
            "304693f7bc4e17a99f6782ce95334c3c1b873998583420cd2c87d8aa88a2fb62",
            31_191,
        ),
        (
            "petersen_qa5_cert",
            "1c7afa696e18a94dc71efc9c61e6be8239f4f36d391e3e8f8a521392282b04a1",
            41_413,
        ),
        (
            "c5_qa5_cert",
            "f3a8b6643fa9eb494fae35c4489423680e1a00eca7c136ddccf21f08eaa48dce",
            5_188,
        ),
    ],
    ids=["petersen-full", "c5-full", "petersen-qa5", "c5-qa5"],
)
def test_certificate_bytes_are_pinned(cert_fixture, sha256, size, request):
    data = (dumps_certificate(request.getfixturevalue(cert_fixture)) + "\n").encode("ascii")
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == sha256


# dumps_certificate writes each conclusion from a template; the dict
# form, encoded by the json module, is the reference it must match.
def _json_of_the_dict(cert) -> str:
    return json.dumps(certificate_to_dict(cert), separators=(",", ":"))


@pytest.mark.parametrize(
    "cert_fixture", ["petersen_full_cert", "c5_full_cert", "petersen_qa5_cert", "c5_qa5_cert"]
)
def test_dumps_is_the_json_of_the_dict_form(cert_fixture, request):
    cert = request.getfixturevalue(cert_fixture)
    assert dumps_certificate(cert) == _json_of_the_dict(cert)


_INDICES = st.one_of(st.integers(1, 10), st.integers(1, 10**40))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([COMMUTES, ZERO_PRODUCT]), *[_INDICES] * 4),
        max_size=8,
    )
)
def test_dumps_of_drawn_conclusions_is_the_json_of_the_dict_form(fields):
    cert = dataclasses.replace(_sample_cert(), conclusions=[Conclusion(*f) for f in fields])
    assert dumps_certificate(cert) == _json_of_the_dict(cert)


def test_repeated_malformed_poly_names_its_first_field():
    d = certificate_to_dict(_sample_cert())
    d["steps"][1]["rhs"] = d["steps"][3]["lhs"] = "u[1,1] + u[1"
    with pytest.raises(MalformedCertificate, match="^step 1 rhs: "):
        certificate_from_dict(d)


def test_loads_rejects_non_json():
    with pytest.raises(MalformedCertificate):
        loads_certificate("{not json")
    with pytest.raises(MalformedCertificate):
        loads_certificate("[1,2,3]")


def test_loads_rejects_deep_nesting():
    # json.loads recurses once per level and hits the recursion limit.
    with pytest.raises(MalformedCertificate):
        loads_certificate("[" * 100000 + "]" * 100000)


def test_loads_rejects_integers_over_the_digit_limit():
    # Python refuses to convert integer strings over 4300 digits.
    huge = "7" * 5000
    with pytest.raises(MalformedCertificate):
        loads_certificate('{"version":' + huge + "}")
    d = certificate_to_dict(_sample_cert())
    d["steps"][0]["lhs"] = huge + "*u[1,1]"
    with pytest.raises(MalformedCertificate) as exc:
        loads_certificate(json.dumps(d))
    assert "step 0 lhs" in str(exc.value)


def test_step_and_conclusion_validation():
    x = u(1, 1)
    with pytest.raises(ValueError):
        ProofStep(-1, x, x, Combine(()))
    # A conclusion has five fields, and no citation.
    assert Conclusion._fields == ("kind", "i", "j", "k", "l")
    for cited in ((0,), (0, 0, 0)):
        with pytest.raises(TypeError):
            Conclusion(COMMUTES, 1, 1, 2, 2, *cited)
    claim = Conclusion(COMMUTES, 1, 2, 3, 4).claim()
    assert claim == (
        monomial(((1, 2), (3, 4))),
        monomial(((3, 4), (1, 2))),
    )
    zero = Conclusion(ZERO_PRODUCT, 1, 2, 3, 4).claim()
    assert zero == (monomial(((1, 2), (3, 4))), monomial((), 1) - monomial((), 1))


# A valid conclusion, and one change of it per refusal, with the
# message each refusal gives whichever way the record is built.
_GOOD = Conclusion(COMMUTES, 1, 2, 3, 4)
_REFUSALS = [
    pytest.param(dict(kind="maybe"), "unknown conclusion kind 'maybe'", id="kind"),
    pytest.param(
        dict(j=True), "conclusion index must be a positive integer, got True", id="bool-index"
    ),
    pytest.param(dict(l=0), "conclusion index must be a positive integer, got 0", id="zero-index"),
    pytest.param(
        dict(i=1.0), "conclusion index must be a positive integer, got 1.0", id="float-index"
    ),
]


def _build(how, fields):
    if how == "constructor":
        return Conclusion(*fields.values())
    if how == "_make":
        return Conclusion._make(fields.values())
    return _GOOD._replace(**fields)


@pytest.mark.parametrize("how", ["constructor", "_make", "_replace"])
@pytest.mark.parametrize("change, message", _REFUSALS)
def test_every_way_of_building_a_conclusion_checks_it(how, change, message):
    fields = _GOOD._asdict()
    assert type(_build(how, fields)) is Conclusion and _build(how, fields) == _GOOD
    fields.update(change)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _build(how, fields)


@pytest.mark.parametrize("field", ["rows", "cols"])
def test_swap_refuses_a_negative_table_index(field):
    # Python would read table[-1] as the last entry; the index is
    # refused when the justification is built, and so when it is loaded.
    with pytest.raises(MalformedCertificate, match=f"^swap {field} must be a nonnegative"):
        Swap(5, **dict(dict(rows=0, cols=1, position=0), **{field: -1}))
    d = certificate_to_dict(_sample_cert())
    d["steps"][9]["justification"][field] = -1
    with pytest.raises(MalformedCertificate, match=f"^swap {field} must be a nonnegative"):
        certificate_from_dict(d)


def test_claim_quadruple_inverts_claim():
    quads = itertools.product(range(1, 4), repeat=4)
    for kind, quad in itertools.product((COMMUTES, ZERO_PRODUCT), quads):
        assert claim_quadruple(*Conclusion(kind, *quad).claim()) == (kind, *quad)
    # Coefficients compare by value, as Poly equality does.
    one = Fraction(1)
    x = Poly({((1, 2), (2, 3)): one})
    assert claim_quadruple(x, Poly({((2, 3), (1, 2)): one})) == (COMMUTES, 1, 2, 2, 3)


def test_claim_quadruple_refuses_other_claims(petersen_full_cert):
    x = monomial(((1, 2), (2, 3)))
    x_rev = monomial(((2, 3), (1, 2)))
    not_claims = [
        (2 * x, 2 * x_rev),  # coefficient 2
        (x, 2 * x_rev),
        (-x, Poly.zero()),
        (monomial(((1, 2), (2, 3), (1, 1))), Poly.zero()),  # three letters
        (u(1, 2), Poly.zero()),  # one letter
        (x, x),  # rhs is not the reverse of lhs
        (x, x_rev + u(1, 1)),
        (x + u(1, 1), x_rev),
        (Poly.zero(), Poly.zero()),
    ]
    for lhs, rhs in not_claims:
        assert claim_quadruple(lhs, rhs) is None, (lhs, rhs)
    combined = [s for s in petersen_full_cert.steps if isinstance(s.justification, Combine)]
    assert combined
    assert all(claim_quadruple(s.lhs, s.rhs) is None for s in combined)
