"""Affine monoids in N^r: membership, divisibility, normality certificates
and toric ideals of the associated monomial maps.

Monoids are stored by their generator vectors.  Being inside N^r makes them
automatically cancellative, torsion-free and reduced, so the interesting
predicates are the algorithmic ones: c-divisibility up to a degree bound,
normality up to a degree bound (lattice points of the cone that lie in the
group completion must decompose over the generators), and the binomial
kernel of k[x_gens] -> k[z_1..z_r].

The only monoid used downstream is the Segre-cone monoid (four generators
z1z3, z2z4, z1z4, z2z3 written as exponent vectors), but everything here is
generic over small inputs.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import EngineError
from .linalg import column_dependencies
from .polyring import GroebnerBasis, Polynomial, groebner, monomials_of_degree

# generator order follows the monomial map x1 -> z1z3, x2 -> z2z4,
# x3 -> z1z4, x4 -> z2z3, so the toric ideal is (x1x2 - x3x4)
SEGRE_CHARS = ((1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0))


class AffineMonoid:
    """Submonoid of N^r given by generators."""

    def __init__(self, generators):
        gens = [tuple(int(x) for x in g) for g in generators]
        if not gens:
            raise ValueError("need at least one generator")
        r = len(gens[0])
        for g in gens:
            if len(g) != r:
                raise ValueError("generator ranks differ")
            if any(x < 0 for x in g):
                raise ValueError("generators must lie in N^r")
            if not any(g):
                raise ValueError("zero generator not allowed")
        self.rank = r
        self.generators = tuple(gens)
        self._member_cache: dict = {(0,) * r: True}

    def contains(self, u) -> bool:
        """Membership by exhaustive decomposition over the generators."""
        u = tuple(u)
        got = self._member_cache.get(u)
        if got is not None:
            return got
        if any(x < 0 for x in u):
            return False
        ok = False
        for g in self.generators:
            v = tuple(a - b for a, b in zip(u, g))
            if all(x >= 0 for x in v) and self.contains(v):
                ok = True
                break
        self._member_cache[u] = ok
        return ok

    def elements_up_to(self, degree_bound: int) -> set:
        """All sums of at most degree_bound generators (0 included)."""
        out = {(0,) * self.rank}
        frontier = {(0,) * self.rank}
        for _ in range(degree_bound):
            frontier = {tuple(a + b for a, b in zip(u, g))
                        for u in frontier for g in self.generators}
            out |= frontier
        return out


def gubeladze_monoid() -> AffineMonoid:
    return AffineMonoid(SEGRE_CHARS)


def c_divisibility_witness(m: AffineMonoid, c: int, degree_bound: int):
    """A monoid element of generator-degree <= degree_bound with no c-th
    divisor in the monoid, or None if every such element has one."""
    if c < 2:
        raise ValueError("c must be >= 2")
    for u in sorted(m.elements_up_to(degree_bound)):
        if not any(u):
            continue
        if all(x % c == 0 for x in u) and m.contains(tuple(x // c for x in u)):
            continue
        return u
    return None


def _triangular_lattice_basis(vectors):
    """Column-style Hermite reduction; returns (pivot_row, column) pairs."""
    work = [list(v) for v in vectors if any(v)]
    if not work:
        return []
    r = len(work[0])
    basis = []
    for row in range(r):
        while True:
            nz = [c for c in work if c[row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[row]))
            small = nz[0]
            for c in nz[1:]:
                q = c[row] // small[row]
                if q:
                    for i in range(r):
                        c[i] -= q * small[i]
        pivot = next((c for c in work if c[row] != 0), None)
        if pivot is not None:
            basis.append((row, pivot))
            work = [c for c in work if c is not pivot]
    return basis


def lattice_contains(triangular, u) -> bool:
    u = list(u)
    for row, col in triangular:
        if col[row] != 0 and u[row] % col[row] == 0:
            q = u[row] // col[row]
            if q:
                for i in range(len(u)):
                    u[i] -= q * col[i]
        if u[row] != 0:
            return False
    return all(x == 0 for x in u)


def is_normal_up_to(m: AffineMonoid, degree_bound: int) -> bool:
    """Certificate: no u in N^r with coordinate sum <= degree_bound lies in
    gp(M), has k*u in M for some 2 <= k <= 6, yet is not itself in M.

    A bounded check, not a proof of normality.
    """
    tri = _triangular_lattice_basis(m.generators)
    r = m.rank
    for total in range(1, degree_bound + 1):
        for u in monomials_of_degree(r, total):
            if m.contains(u):
                continue
            if not lattice_contains(tri, u):
                continue
            for k in range(2, 7):
                if m.contains(tuple(k * x for x in u)):
                    return False
    return True


def cone_relation() -> Polynomial:
    """x1x2 - x3x4, the binomial cut out by the kernel of the Segre map."""
    return Polynomial(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})


def _primitive(vec) -> tuple:
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def toric_ideal(m: AffineMonoid, check_degree: int = 6) -> list[Polynomial]:
    """Binomial generators (a reduced Groebner basis) of the kernel of
    k[x_1..x_s] -> k[z_1..z_r], x_i -> z^{gen_i}.

    Strategy: rational kernel of the generator matrix, primitive integer
    representatives plus small integer combinations, binomials, Buchberger.
    Completeness is certified by comparing, for every weighted degree up to
    check_degree, the count of standard monomials against the count of
    distinct monoid elements; a mismatch raises EngineError.
    """
    s = len(m.generators)
    columns = [{j: x for j, x in enumerate(g) if x} for g in m.generators]
    deps = column_dependencies(columns)
    if not deps:
        return []
    kernel = [_primitive([d.get(j, 0) for j in range(s)]) for d in deps]

    lattice_vecs = set()
    for coeffs in itertools.product(range(-2, 3), repeat=len(kernel)):
        if not any(coeffs):
            continue
        v = tuple(sum(c * k[j] for c, k in zip(coeffs, kernel)) for j in range(s))
        lattice_vecs.add(v)

    binomials = []
    seen = set()
    for v in lattice_vecs:
        plus = tuple(max(x, 0) for x in v)
        minus = tuple(max(-x, 0) for x in v)
        key = frozenset((plus, minus))
        if plus == minus or key in seen:
            continue
        seen.add(key)
        b = Polynomial(s, {plus: 1, minus: -1})
        lm, lc = b.leading()
        if lc < 0:
            b = -b
        binomials.append(b)

    gb = groebner(binomials)
    _certify_toric(m, gb, check_degree)
    return list(gb.elements)


def _certify_toric(m: AffineMonoid, gb: GroebnerBasis, check_degree: int) -> None:
    weights = [sum(g) for g in m.generators]
    s = len(m.generators)
    for d in range(1, check_degree + 1):
        standard = 0
        images = set()
        for e in _weighted_exponents(weights, d):
            images.add(tuple(sum(ei * gi[j] for ei, gi in zip(e, m.generators))
                             for j in range(m.rank)))
            if not any(all(ei >= li for ei, li in zip(e, lm)) for lm in gb.leads):
                standard += 1
        if standard != len(images):
            raise EngineError(
                f"toric ideal incomplete at weighted degree {d}: "
                f"{standard} standard monomials vs {len(images)} monoid elements")


def _weighted_exponents(weights, d):
    """Exponent vectors e with sum(e_i * weights_i) == d."""
    if len(weights) == 1:
        w = weights[0]
        if d % w == 0:
            yield (d // w,)
        return
    w = weights[0]
    for first in range(d // w + 1):
        for rest in _weighted_exponents(weights[1:], d - first * w):
            yield (first,) + rest
