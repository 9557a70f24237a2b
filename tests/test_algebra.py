import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    COL,
    ROW,
    Gen,
    Poly,
    PolyParseError,
    automorphism_group,
    cycle,
    expand_unity,
    format_poly,
    gen,
    monomial,
    parse_poly,
    petersen,
    star,
    u,
    word,
)
from algebra_reference import commutator, evaluate_perm, parse_poly_reference, relabel

coeffs = st.one_of(
    st.integers(min_value=-4, max_value=4).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
)
gens = st.tuples(st.integers(1, 10), st.integers(1, 10)).map(lambda t: gen(*t))
words = st.lists(gens, max_size=4).map(tuple)
polys = st.lists(st.tuples(words, coeffs), max_size=5).map(Poly)


def test_gen_validation():
    assert gen(2, 3) == Gen(2, 3)
    assert gen(2, 3) is gen(2, 3)  # interned
    with pytest.raises(ValueError):
        gen(0, 1)
    with pytest.raises(ValueError):
        gen(1, -2)


def test_poly_normalization():
    w = word((1, 2))
    assert Poly([(w, 1), (w, -1)]).is_zero
    assert Poly([(w, 1), (w, 2)]) == Poly([(w, 3)])
    assert Poly({(): Fraction(1, 2)}).terms == {(): Fraction(1, 2)}
    with pytest.raises(TypeError):
        Poly([(w, 0.5)])
    with pytest.raises(TypeError):
        Poly([(w, True)])


def test_arithmetic_basics():
    p = u(1, 2)
    q = u(3, 4)
    assert p * q == monomial(((1, 2), (3, 4)))
    assert (p + -1 * p).is_zero
    assert Poly.one() * p == p == p * Poly.one()
    assert p - p == Poly.zero()
    assert 2 * p == p + p
    assert Fraction(1, 2) * (2 * p) == p


@given(polys, polys, polys)
def test_multiply_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_multiply_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@given(polys, polys)
def test_star_antihomomorphism(p, q):
    assert star(p * q) == star(q) * star(p)


@given(polys)
def test_star_involution(p):
    assert star(star(p)) == p


def test_star_examples():
    assert star(monomial(((1, 2), (3, 4)))) == monomial(((3, 4), (1, 2)))
    assert star(u(1, 1)) == u(1, 1)


def test_commutator():
    p = u(1, 2)
    assert commutator(p, p).is_zero
    assert commutator(p, Poly.one()).is_zero
    q = u(3, 4)
    assert commutator(p, q) == monomial(((1, 2), (3, 4))) - monomial(((3, 4), (1, 2)))


def test_expand_unity_examples():
    got = expand_unity(u(1, 1), 1, 2, ROW, 3)
    want = sum(
        (monomial(((1, 1), (2, s))) for s in (1, 2, 3)), Poly.zero()
    )
    assert got == want
    # Empty word at position 0 becomes a bare unity sum.
    assert expand_unity(Poly.one(), 0, 2, ROW, 3) == sum(
        (u(2, s) for s in (1, 2, 3)), Poly.zero()
    )
    assert expand_unity(Poly.one(), 0, 2, COL, 3) == sum(
        (u(s, 2) for s in (1, 2, 3)), Poly.zero()
    )
    assert expand_unity(Poly.zero(), 0, 1, ROW, 3).is_zero


def test_expand_unity_errors():
    with pytest.raises(ValueError):
        expand_unity(u(1, 1), 2, 1, ROW, 3)  # position past word end
    with pytest.raises(ValueError):
        expand_unity(u(1, 1), 0, 4, ROW, 3)  # index out of range
    with pytest.raises(ValueError):
        expand_unity(u(1, 1), 0, 1, "diag", 3)


@given(polys, st.integers(1, 10))
def test_expand_unity_adds_factor_everywhere(p, idx):
    got = expand_unity(p, 0, idx, ROW, 10)
    assert all(len(w) >= 1 and w[0].row == idx for w in got.terms) or p.is_zero


def test_relabel_examples():
    p = monomial(((1, 2), (3, 1))) - 2 * u(2, 2)
    assert relabel(p, (2, 3, 1), (3, 1, 2)) == monomial(((2, 1), (1, 3))) - 2 * u(3, 1)
    # A renaming that is not injective merges words.
    assert relabel(u(1, 1) + u(2, 1), (1, 1, 3), (1, 2, 3)) == 2 * u(1, 1)
    assert relabel(Poly.one(), (), ()) == Poly.one()


@pytest.mark.parametrize("p", [u(4, 1), u(1, 4), monomial(((1, 1), (3, 9)))])
def test_relabel_refuses_generators_beyond_the_renaming(p):
    with pytest.raises(ValueError, match="out of range"):
        relabel(p, (1, 2, 3), (1, 2, 3))


perms10 = st.permutations(range(1, 11)).map(tuple)


@given(polys, polys, perms10, perms10)
def test_relabel_is_a_star_homomorphism(p, q, rows, cols):
    def r(x):
        return relabel(x, rows, cols)

    assert r(p * q) == r(p) * r(q)
    assert r(p + q) == r(p) + r(q)
    assert r(star(p)) == star(r(p))


def test_evaluate_perm_basics():
    g = petersen()
    ident = tuple(range(1, 11))
    assert evaluate_perm(g, ident, u(1, 1)) == 1
    assert evaluate_perm(g, ident, u(1, 2)) == 0
    assert evaluate_perm(g, ident, Poly.one()) == 1
    assert evaluate_perm(g, ident, Poly.zero()) == 0
    sigma = (2, 1) + tuple(range(3, 11))
    assert evaluate_perm(g, sigma, u(2, 1)) == 1
    assert evaluate_perm(g, sigma, u(1, 1)) == 0
    with pytest.raises(ValueError):
        evaluate_perm(g, tuple(range(1, 10)), u(1, 1))


@given(st.data())
def test_evaluate_perm_multiplicative(data):
    g = cycle(5)
    elements = automorphism_group(g).elements
    sigma = data.draw(st.sampled_from(elements))
    p = data.draw(st.lists(st.tuples(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda t: gen(*t)), max_size=3).map(tuple), st.integers(-3, 3).filter(bool)), max_size=4).map(Poly))
    q = data.draw(st.lists(st.tuples(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda t: gen(*t)), max_size=3).map(tuple), st.integers(-3, 3).filter(bool)), max_size=4).map(Poly))
    assert evaluate_perm(g, sigma, p * q) == evaluate_perm(
        g, sigma, p
    ) * evaluate_perm(g, sigma, q)


def test_format_poly_canonical():
    p = monomial(((3, 4),)) + monomial(((1, 2), (3, 4)), Fraction(3, 2))
    assert format_poly(p) == "u[3,4] + 3/2*u[1,2]u[3,4]"
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(Poly.one()) == "1"
    assert format_poly(-Poly.one()) == "-1"
    assert format_poly(u(1, 1) - u(2, 2)) == "u[1,1] - u[2,2]"
    assert format_poly(-2 * u(1, 1)) == "-2*u[1,1]"


def test_parse_poly_examples():
    assert parse_poly("3/2*u[1,2]u[3,4] - u[5,5]") == monomial(
        ((1, 2), (3, 4)), Fraction(3, 2)
    ) - u(5, 5)
    assert parse_poly("1") == Poly.one()
    assert parse_poly("0") == Poly.zero()
    assert parse_poly("u[1,1]u[1,2]") == monomial(((1, 1), (1, 2)))
    assert parse_poly("u[1,1] * u[1,2]") == monomial(((1, 1), (1, 2)))
    assert parse_poly("2*1") == Poly([((), 2)])
    assert parse_poly("u[2,3] + u[2,3]") == 2 * u(2, 3)
    assert parse_poly("-u[1,1] + 1/2") == Poly([((), Fraction(1, 2))]) - u(1, 1)


def test_parse_poly_errors():
    for bad in ("", "u[1]", "u[0,1]", "1/0", "2 3", "u[1,1] +", "* u[1,1]", "u[1,1]]"):
        with pytest.raises(PolyParseError):
            parse_poly(bad)


def test_parse_poly_refuses_integers_over_the_digit_limit():
    # Python refuses to convert integer strings over 4300 digits: a
    # number, a denominator or a generator index that long is a parse
    # error at its token.
    huge = "7" * 5000
    for bad in (huge, "2/" + huge, "u[" + huge + ",1]", "u[2," + huge + "]"):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("u[1,1] + 3*" + bad)
        assert exc.value.position == 11


@given(polys)
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p)) == p


def _parsed(parse, text):
    """parse(text) as ("poly", the Poly, each word's coefficient type), or
    as ("refused", message, position)."""
    try:
        p = parse(text)
    except PolyParseError as exc:
        return "refused", str(exc).split(": ", 1)[1], exc.position
    return "poly", p, {w: type(c) for w, c in p.terms.items()}


_GRAMMAR_FAULTS = ("empty input", "unexpected end of input", "expected '+' or '-'")


def _is_grammar_fault(message):
    return message in _GRAMMAR_FAULTS or re.fullmatch(r"unexpected '\w+' token", message)


_HUGE = "7" * 5000
# Tokens, parts of tokens, whitespace (Unicode too), a Unicode digit, and
# faults of every kind, for drawing texts of a few pieces.
_PIECES = [
    "u[1,2]", "u[10,3]", "u[٣,1]", "u[0,1]", "u[1,0]", "u[", "]", ",", "x", "/", " ", "\t",
    "\u2003", "٣", "7", "0", "12", "1/0", "4/2", "3/2", "0/5", _HUGE, "2/" + _HUGE,
    "u[" + _HUGE + ",1]", "*", "+", "-",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=8).map("".join))
def test_parse_poly_agrees_with_the_token_list_reference(text):
    # Both accept the same texts, with equal Polys and coefficient types.
    # The reference tokenizes the whole text before it reads the grammar,
    # so where it names a bad character or number the one pass may name a
    # grammar fault met before it; where it names a grammar fault, the
    # text has no other kind, and both name the same.
    got, ref = _parsed(parse_poly, text), _parsed(parse_poly_reference, text)
    assert got[0] == ref[0]
    if ref[0] == "poly" or _is_grammar_fault(ref[1]):
        assert got == ref
    else:
        assert got == ref or (_is_grammar_fault(got[1]) and got[2] <= ref[2])


_GEN_FACTORS = ["u[1,2]", "u[3,4]", "u[٣,1]", "u[10,10]"]
_NUM_FACTORS = ["2", "3/2", "4/2", "0", "٣", "12"]


@st.composite
def _valid_pieces(draw):
    """A valid text as a list of pieces: signed terms, each of factors
    joined by "*" or, before a generator, juxtaposed."""
    pieces = []
    for t in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "-", "+ "] if t == 0 else [" + ", " - ", "+", "-"]))
        pieces += [sign] if sign else []
        factor_pieces = st.sampled_from(_GEN_FACTORS + _NUM_FACTORS)
        factors = draw(st.lists(factor_pieces, min_size=1, max_size=3))
        for f_idx, factor in enumerate(factors):
            if f_idx:
                joints = ["*", " * "] + ([] if factor in _NUM_FACTORS else ["", " "])
                pieces.append(draw(st.sampled_from(joints)))
            pieces.append(factor)
    return pieces


@settings(max_examples=200, deadline=None)
@given(_valid_pieces(), st.data())
def test_parse_poly_names_a_single_fault_as_the_reference(pieces, data):
    # A valid text, and the same text with one fault put in: a bad
    # character anywhere, a bad generator or number in a factor's place, a
    # sign or "*" with nothing after it, a sign after a sign, a "*" first,
    # or a number after a factor with no "*" between.
    text = "".join(pieces)
    assert _parsed(parse_poly, text) == _parsed(parse_poly_reference, text)
    assert _parsed(parse_poly, text)[0] == "poly"
    factors = [i for i, p in enumerate(pieces) if p in _GEN_FACTORS + _NUM_FACTORS]
    nums = [i for i, p in enumerate(pieces) if p in _NUM_FACTORS]
    signs = [i for i, p in enumerate(pieces) if p.strip() in ("+", "-")]
    faults = ["char", "gen", "end", "times", "juxtaposed"]
    draw = data.draw
    fault = draw(st.sampled_from(faults + ["num"] * bool(nums) + ["sign"] * bool(signs)))
    if fault == "char":
        offset = draw(st.integers(0, len(text)))
        text = text[:offset] + draw(st.sampled_from(["x", "]", ",", "!"])) + text[offset:]
    elif fault == "gen":
        bad = ["u[0,1]", "u[2,0]", "u[" + _HUGE + ",1]", "u[1," + _HUGE + "]"]
        pieces[draw(st.sampled_from(factors))] = draw(st.sampled_from(bad))
    elif fault == "num":
        bad = ["1/0", "٣/0", _HUGE, "2/" + _HUGE, _HUGE + "/2"]
        pieces[draw(st.sampled_from(nums))] = draw(st.sampled_from(bad))
    elif fault == "end":
        pieces.append(draw(st.sampled_from(["+", " - ", "*", " * "])))
    elif fault == "sign":
        pieces.insert(draw(st.sampled_from(signs)) + 1, draw(st.sampled_from(["+", " - "])))
    elif fault == "times":
        pieces.insert(0, "*")
    else:
        number = draw(st.sampled_from([" 2", " 3/2", " ٣"]))
        pieces.insert(draw(st.sampled_from(factors)) + 1, number)
    if fault != "char":
        text = "".join(pieces)
    got = _parsed(parse_poly, text)
    assert got[0] == "refused" and got == _parsed(parse_poly_reference, text), fault
