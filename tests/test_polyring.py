"""Exact polynomial arithmetic, Groebner bases, truncated quotient algebras."""
from contextlib import ExitStack
from fractions import Fraction
from functools import cmp_to_key
from math import comb
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segrecone import linalg, polyring
from segrecone.polyring import (
    FiniteAlgebra,
    Polynomial,
    grevlex_key,
    groebner,
    mon_deg,
    mon_div,
    mon_lcm,
    mon_mul,
    monomials_of_degree,
    reduce_full,
    spoly,
    truncated_quotient,
)

from laws import verify_associative, verify_commutative

F = Fraction
CONE_REL = Polynomial(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})

mons2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys2 = st.dictionaries(mons2, st.integers(-4, 4), max_size=5).map(
    lambda t: Polynomial(2, t))


# -- monomial helpers ---------------------------------------------------------

def test_monomial_arithmetic():
    assert mon_mul((1, 0, 2), (0, 3, 1)) == (1, 3, 3)
    assert mon_div((2, 1), (1, 0)) == (1, 1)
    assert mon_div((1, 0), (0, 1)) is None
    assert mon_lcm((2, 0), (1, 3)) == (2, 3)
    assert mon_deg((1, 2, 3, 0)) == 6


def test_monomials_of_degree_count():
    for nvars, d in [(2, 3), (3, 2), (4, 2), (4, 3)]:
        mons = monomials_of_degree(nvars, d)
        assert len(mons) == comb(d + nvars - 1, nvars - 1)
        assert len(set(mons)) == len(mons)
        assert all(mon_deg(m) == d and len(m) == nvars for m in mons)


def test_grevlex_leading_term():
    p = Polynomial(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert p.leading()[0] == (2, 0)
    # same degree: the cone binomial leads with x1*x2
    assert CONE_REL.leading() == ((1, 1, 0, 0), F(1))


def grevlex_compare(a, b):
    """Graded reverse lex as textbooks define it (Cox-Little-O'Shea, ch. 2
    sec. 2): a > b iff deg a > deg b, or the degrees are equal and the
    rightmost nonzero entry of a - b is negative."""
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    diff = [x - y for x, y in zip(a, b) if x != y]
    if not diff:
        return 0
    return 1 if diff[-1] < 0 else -1


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), unique=True, max_size=12))
def test_grevlex_key_sorts_as_the_textbook_order(mons):
    assert sorted(mons, key=grevlex_key) == sorted(
        mons, key=cmp_to_key(grevlex_compare))


# -- polynomial ring ----------------------------------------------------------

def test_polynomial_arithmetic():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p = (x + y) * (x - y)
    assert p == Polynomial(2, {(2, 0): 1, (0, 2): -1})
    assert (p - p).is_zero()
    assert p.scale(F(1, 2)).terms[(2, 0)] == F(1, 2)
    assert (x * y).total_degree() == 2
    assert p.is_homogeneous()
    assert not (p + Polynomial(2, {(0, 0): 1})).is_homogeneous()


@given(polys2, polys2, polys2)
def test_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polys2, polys2)
def test_ring_commutativity(p, q):
    assert p * q == q * p
    assert p + q == q + p


# -- the number rule: ints where integral, Fractions otherwise ---------------

int_terms2 = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                             st.integers(-4, 4), max_size=4)


def all_fraction():
    """Polynomial arithmetic with every coefficient stored as a Fraction and
    every division a Fraction division: the reference for the rule."""
    stack = ExitStack()
    for module in (polyring, linalg):
        stack.enter_context(mock.patch.object(module, "_exact", Fraction))
    stack.enter_context(mock.patch.object(
        polyring, "_exact_div", lambda c, lead: Fraction(c) / lead))
    return stack


def rule_results(f, g, h, c):
    p, q, r = (Polynomial(2, t) for t in (f, g, h))
    out = {"add": p + q, "mul": p * q, "scale": p.scale(c),
           "reduce": reduce_full(p, [q, r])}
    if not (q.is_zero() or r.is_zero()):
        out["spoly"] = spoly(q, r)
    if not (q.is_zero() and r.is_zero()):
        out["groebner"] = list(groebner([q, r]))
    return out


def coefficients(results):
    for value in results.values():
        for poly in value if isinstance(value, list) else [value]:
            yield from poly.terms.values()


@given(int_terms2, int_terms2, int_terms2,
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_int_coefficients_match_fraction_arithmetic(f, g, h, c):
    got = rule_results(f, g, h, c)
    with all_fraction():
        want = rule_results(*({m: Fraction(x) for m, x in t.items()}
                              for t in (f, g, h)), c)
    assert got == want
    assert all(type(x) is Fraction for x in coefficients(want))
    for x in coefficients(got):
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1)


def test_reduce_full_hand_example():
    # divide x^2 y + x y by (x y - 1): remainder is x + 1
    f = Polynomial(2, {(2, 1): 1, (1, 1): 1})
    g = Polynomial(2, {(1, 1): 1, (0, 0): -1})
    nf = reduce_full(f, [g])
    assert nf == Polynomial(2, {(1, 0): 1, (0, 0): 1})


def test_spoly_cancels_leading_terms():
    f = Polynomial(2, {(2, 0): 1, (0, 1): -1})
    g = Polynomial(2, {(1, 1): 1, (0, 0): -1})
    s = spoly(f, g)
    lcm = mon_lcm(f.leading()[0], g.leading()[0])
    assert all(m != lcm for m in s.terms)


def test_groebner_buchberger_criterion():
    f = Polynomial(2, {(2, 0): 1, (0, 1): -1})  # x^2 - y
    g = Polynomial(2, {(0, 2): 1, (1, 0): -1})  # y^2 - x
    gb = groebner([f, g])
    els = list(gb)
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            assert gb.normal_form(spoly(els[i], els[j])).is_zero()
    assert gb.contains(f) and gb.contains(g)


def test_groebner_of_single_binomial_is_itself():
    gb = groebner([CONE_REL])
    assert len(gb) == 1
    assert list(gb)[0] == CONE_REL
    # x1*x2 reduces to x3*x4
    nf = gb.normal_form(Polynomial.monomial((1, 1, 0, 0)))
    assert nf == Polynomial.monomial((0, 0, 1, 1))


@given(polys2, polys2)
def test_normal_form_idempotent_and_kills_ideal(p, q):
    f = Polynomial(2, {(2, 0): 1, (0, 1): -1})
    g = Polynomial(2, {(0, 2): 1, (1, 0): -1})
    gb = groebner([f, g])
    nf = gb.normal_form(p)
    assert gb.normal_form(nf) == nf
    assert gb.normal_form(p + f * q) == nf


# -- truncated quotient algebras ----------------------------------------------

def test_truncated_cone_algebra_dimensions():
    # standard monomials of degree j number (j+1)^2, so dim = sum of squares
    for n in (1, 2, 3, 4):
        alg = truncated_quotient([CONE_REL], n)
        assert alg.dims_by_degree() == [(j + 1) ** 2 for j in range(n)]
        assert alg.dim == sum((j + 1) ** 2 for j in range(n))
    assert truncated_quotient([CONE_REL], 3).dim == 14


def test_truncated_polynomial_ring_dimensions():
    alg = truncated_quotient([], 3, nvars=2)
    assert alg.dims_by_degree() == [1, 2, 3]
    assert alg.dim == 6


def test_finite_algebra_multiplication_table():
    alg = truncated_quotient([CONE_REL], 3)
    # x1 * x2 rewrites to x3 * x4
    assert alg.mult((1, 0, 0, 0), (0, 1, 0, 0)) == {(0, 0, 1, 1): F(1)}
    # degree overflow truncates to zero
    assert alg.mult((2, 0, 0, 0), (0, 0, 1, 0)) == {}
    assert (0, 0, 1, 1) in alg.index


def test_finite_algebra_laws():
    for n in (2, 3):
        alg = truncated_quotient([CONE_REL], n)
        assert verify_commutative(alg)
        assert verify_associative(alg, max_triples=200)


def test_hilbert_function_of_homogeneous_quotient():
    alg = truncated_quotient([CONE_REL], 3)
    assert alg.dims_by_degree() == [1, 4, 9]


def test_nf_terms_linear_over_basis():
    alg = truncated_quotient([CONE_REL], 3)
    lhs = alg.nf_terms({(1, 1, 0, 0): F(2), (1, 0, 0, 0): F(1)})
    assert lhs == {(0, 0, 1, 1): F(2), (1, 0, 0, 0): F(1)}


# -- the truncation rule against Buchberger on I + m^n ---------------------

def _twisted_cubic_minors():
    """2x2 minors of [[x1, x2, x3], [x2, x3, x4]]."""
    return [Polynomial(4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1}),
            Polynomial(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}),
            Polynomial(4, {(0, 1, 0, 1): 1, (0, 0, 2, 0): -1})]


TRUNCATION_CASES = (
    [("cone", [CONE_REL], 4, n) for n in range(1, 9)]
    + [("free2", [], 2, n) for n in range(1, 6)]
    + [("free4", [], 4, n) for n in range(1, 5)]
    + [("twisted-cubic", _twisted_cubic_minors(), 4, n) for n in range(1, 6)])


def grlex_key(m):
    """Graded lex: another degree-compatible order."""
    return (sum(m), tuple(m))


@pytest.mark.parametrize("kind", ["grevlex", "grlex"])
@pytest.mark.parametrize("name,gens,nvars,n", TRUNCATION_CASES,
                         ids=[f"{c[0]}-n{c[3]}" for c in TRUNCATION_CASES])
def test_truncation_rule_matches_buchberger(name, gens, nvars, n, kind):
    """The engine runs grevlex only, but the rule's proof needs only a
    degree-compatible order, so it is also checked with grlex swapped in
    for the key throughout polyring (as all_fraction swaps the number
    rule)."""
    with ExitStack() as stack:
        if kind == "grlex":
            stack.enter_context(
                mock.patch.object(polyring, "grevlex_key", grlex_key))
        alg = truncated_quotient(gens, n, nvars=nvars)
        full = groebner(gens + [Polynomial.monomial(m)
                                for m in monomials_of_degree(nvars, n)])
        assert alg.gb.elements == full.elements  # same elements, same order
        assert alg.basis == FiniteAlgebra(nvars, full, level=n).basis


def test_truncation_rule_refuses_inhomogeneous_input():
    inhomogeneous = CONE_REL + Polynomial.variable(0, 4)
    with pytest.raises(ValueError, match="homogeneous"):
        truncated_quotient([inhomogeneous], 3)
