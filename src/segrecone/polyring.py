"""Multivariate polynomials over the rationals and Groebner machinery.

Coefficients follow the engine's number rule (``linalg``): ints where
integral, exact rationals otherwise.

Provides one monomial order, graded reverse lex (``grevlex_key``), which
every computation of the engine uses; Buchberger's algorithm with
inter-reduction, normal forms, and the finite-dimensional truncated
quotient algebras k[x1..xr]/(ideal + m^n) with their monomial bases and
lazy structure constants.

Buchberger runs only on small ideals (the toric ideal of a monoid, or the
homogeneous ideal under a truncation), so the plain loop with the
coprime-lead criterion is adequate; no fraction-free or modular tricks.
The truncation by m^n itself needs no Buchberger: ``truncated_quotient``
reads the basis of I + m^n off the basis of I by the truncation rule.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .linalg import _exact, _exact_div, vec_add, vec_axpy, vec_scale

Monomial = tuple  # exponent vectors, one entry per variable


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mon_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mon_deg(a: Monomial) -> int:
    return sum(a)


def monomials_of_degree(nvars: int, d: int) -> list[Monomial]:
    """All exponent vectors of total degree exactly d."""
    if nvars == 0:
        return [()] if d == 0 else []
    out = []
    for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 2 - prev)
        out.append(tuple(exps))
    return out


def grevlex_key(m: Monomial) -> tuple:
    """Sort key of graded reverse lex, the one monomial order: larger key =
    larger monomial.  Degree first; then the monomial whose last differing
    exponent is smaller wins, encoded by reversing and negating."""
    return (sum(m), tuple(-e for e in reversed(m)))


class Polynomial:
    """Immutable-by-convention polynomial: dict of Monomial -> nonzero
    exact coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping):
        self.nvars = nvars
        clean = {}
        for m, c in terms.items():
            c = _exact(c)
            if c:
                if len(m) != nvars:
                    raise ValueError("monomial arity mismatch")
                clean[tuple(m)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def monomial(exps: Monomial) -> "Polynomial":
        return Polynomial(len(exps), {tuple(exps): 1})

    @staticmethod
    def variable(i: int, nvars: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return Polynomial(nvars, {tuple(e): 1})

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.nvars, vec_add(self.terms, other.terms))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict = {}
            for m1, c1 in self.terms.items():
                vec_axpy(out, c1, {mon_mul(m1, m2): c2
                                   for m2, c2 in other.terms.items()})
            return Polynomial(self.nvars, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        return Polynomial(self.nvars, vec_scale(c, self.terms))

    def mul_monomial(self, mon: Monomial, coeff=1) -> "Polynomial":
        return Polynomial(self.nvars, {mon_mul(m, mon): coeff * c
                                       for m, c in self.terms.items()})

    # -- inspection ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((mon_deg(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {mon_deg(m) for m in self.terms}
        return len(degs) <= 1

    def leading(self) -> tuple:
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            mon = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                           for i, e in enumerate(m) if e)
            if not mon:
                bits.append(str(c))
            elif c == 1:
                bits.append(mon)
            elif c == -1:
                bits.append(f"-{mon}")
            else:
                bits.append(f"{c}*{mon}")
        s = " + ".join(bits).replace("+ -", "- ")
        return s


def reduce_full(p: Polynomial, gens: Sequence[Polynomial]) -> Polynomial:
    """Full normal form of p modulo gens: no remaining term is divisible by
    any leading monomial of gens.  Terminates because each step replaces a
    term by strictly smaller ones in a well-founded order."""
    prepped = []
    for g in gens:
        if g.is_zero():
            continue
        lm, lc = g.leading()
        prepped.append((g, lm, lc))
    work = dict(p.terms)
    out: dict = {}
    while work:
        mon = max(work, key=grevlex_key)
        c = work.pop(mon)
        if not c:
            continue
        for g, lm, lc in prepped:
            q = mon_div(mon, lm)
            if q is None:
                continue
            factor = _exact_div(c, lc)
            for m2, c2 in g.terms.items():
                if m2 == lm:
                    continue
                mm = mon_mul(q, m2)
                n = work.get(mm, 0) - factor * c2
                if n:
                    work[mm] = n
                else:
                    work.pop(mm, None)
            break
        else:
            out[mon] = c
    return Polynomial(p.nvars, out)


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    fm, fc = f.leading()
    gm, gc = g.leading()
    l = mon_lcm(fm, gm)
    return (f.mul_monomial(mon_div(l, fm), _exact_div(1, fc))
            - g.mul_monomial(mon_div(l, gm), _exact_div(1, gc)))


class GroebnerBasis:
    """Reduced Groebner basis: monic elements, no term of any element
    divisible by the leading monomial of another."""

    def __init__(self, elements: Sequence[Polynomial]):
        self.elements = list(elements)
        self.leads = [g.leading()[0] for g in self.elements]

    def normal_form(self, p: Polynomial) -> Polynomial:
        return reduce_full(p, self.elements)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def groebner(gens: Sequence[Polynomial]) -> GroebnerBasis:
    """Buchberger with the coprime-lead criterion, then inter-reduction."""
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("need at least one nonzero generator")
    nvars = basis[0].nvars
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        li = basis[i].leading()[0]
        lj = basis[j].leading()[0]
        if mon_mul(li, lj) == mon_lcm(li, lj):  # coprime leads: S-poly reduces to 0
            continue
        r = reduce_full(spoly(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r)
            k = len(basis) - 1
            pairs.extend((t, k) for t in range(k))
    # inter-reduce to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = [basis[t] for t in range(len(basis)) if t != i and not basis[t].is_zero()]
            r = reduce_full(basis[i], others)
            if r.terms != basis[i].terms:
                basis[i] = r
                changed = True
        basis = [g for g in basis if not g.is_zero()]
    monic = []
    for g in basis:
        _, lc = g.leading()
        monic.append(g.scale(_exact_div(1, lc)))
    monic.sort(key=lambda g: grevlex_key(g.leading()[0]))
    return GroebnerBasis(monic)


class FiniteAlgebra:
    """Finite-dimensional quotient k[x1..xr]/I, I containing m^level, with
    the standard monomials (all of degree < level) as basis.

    Normal forms of monomials are cached; products of basis elements (the
    structure constants) are therefore computed lazily on first use.
    """

    def __init__(self, nvars: int, gb: GroebnerBasis, level: int):
        self.nvars = nvars
        self.gb = gb
        self.level = level
        leads = gb.leads
        basis = []
        for d in range(level):
            for m in monomials_of_degree(nvars, d):
                if not any(mon_div(m, lm) is not None for lm in leads):
                    basis.append(m)
        basis.sort(key=grevlex_key)
        self.basis = basis
        self.index = {m: i for i, m in enumerate(basis)}
        self._nf_cache: dict = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def nf_mon(self, mon: Monomial) -> dict:
        """Normal form of a monomial as {basis monomial: coefficient}."""
        got = self._nf_cache.get(mon)
        if got is None:
            p = self.gb.normal_form(Polynomial.monomial(mon))
            got = dict(p.terms)
            self._nf_cache[mon] = got
        return got

    def nf_terms(self, terms: Mapping) -> dict:
        """Normal form of a term dict, as {basis monomial: coefficient}."""
        out: dict = {}
        for m, c in terms.items():
            vec_axpy(out, c, self.nf_mon(m))
        return out

    def mult(self, m1: Monomial, m2: Monomial) -> dict:
        """Product of two basis monomials in the algebra."""
        return self.nf_mon(mon_mul(m1, m2))

    def dims_by_degree(self) -> list[int]:
        top = max((mon_deg(m) for m in self.basis), default=-1)
        out = [0] * (top + 1)
        for m in self.basis:
            out[mon_deg(m)] += 1
        return out


def truncated_quotient(ideal_gens: Sequence[Polynomial], n: int,
                       nvars: int | None = None) -> FiniteAlgebra:
    """The algebra k[x1..xr]/(I + m^n), I = (ideal_gens), m the irrelevant
    ideal.

    Basis: standard monomials, necessarily of degree < n.  ``nvars`` is only
    needed when ideal_gens is empty (pure truncation of a polynomial ring).

    The reduced Groebner basis of J = I + m^n is read off the reduced basis
    G of I alone (the truncation rule), not computed by Buchberger on J:
    the elements of G of degree < n, plus the degree-n monomials that no
    lead of those elements divides, sorted as ``groebner`` sorts.  The rule
    needs homogeneous generators (inhomogeneous input raises ValueError)
    and a degree-compatible order; the engine's one order, grevlex, is
    one.

    Proof.  I and J are homogeneous ideals.  The elements of G are
    homogeneous (Buchberger on homogeneous generators forms only
    homogeneous S-polynomials and remainders), so each lead of G has the
    degree of its element.  First,
    in(J) = in(I) + m^n.  The inclusion from right to left holds since I and
    m^n lie in J and m^n is a monomial ideal.  Conversely let f in J be
    nonzero, and let f_d be its component of top degree d.  Under a
    degree-compatible order in(f) = in(f_d), and f_d lies in J since J is
    homogeneous.  If d >= n then in(f) lies in m^n.  If d < n, write
    f_d = g + h with g in I and h in m^n; h has no terms of degree d < n,
    so f_d equals the degree-d component of g, which lies in I since I is
    homogeneous; hence in(f) = in(f_d) lies in in(I).
    So in(J) is generated by the leads of G of degree < n (leads of higher
    degree lie in m^n) and the degree-n monomials, of which those divisible
    by such a lead are redundant.  The rule's elements lie in J and their
    leads generate in(J), so they form a Groebner basis of J (Cox-Little-
    O'Shea, Ideals, Varieties, and Algorithms, ch. 2 sec. 5-7).  It is
    reduced: the elements of G below degree n are reduced against each
    other because G is; their terms have degree < n, so no degree-n
    monomial divides them; two distinct monomials of equal degree do not
    divide each other, and by choice no kept monomial is divisible by a
    lead of G below degree n.  All elements are monic, and the reduced basis is unique, so
    the rule returns exactly what Buchberger on J returns.  For the cone
    binomial G is the binomial itself, so for n <= 2 the basis is all of
    the degree-n monomials.  ``tests/test_polyring.py`` cross-checks the
    rule against ``groebner`` on J.
    """
    if n < 1:
        raise ValueError("truncation level must be >= 1")
    if ideal_gens:
        nvars = ideal_gens[0].nvars
    elif nvars is None:
        raise ValueError("empty ideal needs an explicit nvars")
    gens = [g for g in ideal_gens if not g.is_zero()]
    if not all(g.is_homogeneous() for g in gens):
        raise ValueError("the truncation rule needs homogeneous generators")
    basis = ([g for g in groebner(gens) if g.total_degree() < n]
             if gens else [])
    leads = [g.leading()[0] for g in basis]
    basis += [Polynomial.monomial(m) for m in monomials_of_degree(nvars, n)
              if not any(mon_div(m, lm) is not None for lm in leads)]
    basis.sort(key=lambda g: grevlex_key(g.leading()[0]))
    return FiniteAlgebra(nvars, GroebnerBasis(basis), level=n)
