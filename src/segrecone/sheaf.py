"""Line-bundle cohomology on the product of two projective lines.

Two independent computations of every dimension:

* closed forms from the one-variable count h0(P1, O(m)) = max(m+1, 0),
  h1 = max(-m-1, 0), combined by the Kunneth rule;
* a character-by-character Cech complex over the four standard affine
  charts, computed with exact rank arithmetic and a box-stability guard.
  The complex of the 15 chart intersections is built once, at import;
  each character ranks the upward-closed subcomplex of the faces where it
  is a section.  ``_char_cohomology`` gives the argument, and says why
  there is no memo over the 16 sign patterns yet.

On top of these sit the twisted-form expansions, the audited dimension
formula table (one published index is wrong and is reported, not patched),
the graded filtration calculus for sheaves on thickenings of the surface,
and the Euler-sequence identification used by the normality argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import BoxInstabilityError, EngineError
from .linalg import span_rank
from .monoid import SEGRE_CHARS
from .verdict import Verdict


@dataclass(frozen=True, order=True)
class LineBundle:
    """The twist O(a, b) on P1 x P1."""
    a: int
    b: int


def bundle_sum(*pairs):
    return tuple(sorted(LineBundle(a, b) for a, b in pairs))


def h_p1(m: int, i: int) -> int:
    """Cohomology of O(m) on one projective line."""
    if i == 0:
        return max(m + 1, 0)
    if i == 1:
        return max(-m - 1, 0)
    return 0


def h_closed(bundle: LineBundle, i: int) -> int:
    """Kunneth combination of the one-line counts."""
    return sum(h_p1(bundle.a, p) * h_p1(bundle.b, i - p)
               for p in range(0, i + 1))


def euler_characteristic(bundle: LineBundle) -> int:
    return (bundle.a + 1) * (bundle.b + 1)


def expand_omega_twist(p: int, n: int):
    """Twisted form sheaves as sums of line bundles: Omega^p(n, n)."""
    if p < 0 or p > 2:
        return ()
    if p == 0:
        return bundle_sum((n, n))
    if p == 1:
        return bundle_sum((n - 2, n), (n, n - 2))
    return bundle_sum((n - 2, n - 2))


def coh_closed_form(p: int, n: int, i: int) -> int:
    """h^i of Omega^p twisted by O(n, n)."""
    return sum(h_closed(L, i) for L in expand_omega_twist(p, n))


# ---------------------------------------------------------------------------
# Cech oracle over the four affine charts.

_CHARTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _need(face) -> int:
    """Condition mask of a face: the character (p, q) is a section of
    O(a, b) on the intersection iff every bit of it is set in ``have``.
    A coordinate whose projection is one chart gives one condition (1 for
    ``p >= 0``, 2 for ``p <= a``, 4 for ``q >= 0``, 8 for ``q <= b``);
    both charts give none."""
    need = 0
    for axis in (0, 1):
        proj = {u[axis] for u in face}
        if len(proj) == 1:
            need |= 1 << (2 * axis + proj.pop())
    return need


def _coboundary_column(face, cofaces) -> dict:
    """The Cech coboundary of the basis cochain at ``face``: the sign of
    each (k+2)-face T = face + {extra} is (-1) to the position of extra in
    sorted T."""
    col = {}
    for extra in _CHARTS:
        if extra not in face:
            T = tuple(sorted(face + (extra,)))
            col[cofaces.index(T)] = (-1) ** T.index(extra)
    return col


# The full complex, built once: _SUBSETS[k] are the (k+1)-chart faces,
# _NEEDS[k] their condition masks and _COBOUNDARY[k] their coboundary
# columns, keyed by position in _SUBSETS[k + 1].
_SUBSETS = tuple(tuple(combinations(_CHARTS, k + 1)) for k in range(4))
_NEEDS = tuple(tuple(_need(S) for S in faces) for faces in _SUBSETS)
_COBOUNDARY = tuple(
    tuple(_coboundary_column(S, _SUBSETS[k + 1]) for S in _SUBSETS[k])
    for k in range(3))


def _char_cohomology(p, q, a, b):
    """h^0..h^3 of the alternating Cech complex of O(a, b) at one character.

    The complex at (p, q) is the subcomplex of the full four-chart complex
    spanned by the faces whose need is contained in the character's mask
    ``have``.  The full columns need no filtering: if T contains S, each
    projection of T contains that of S, so a coordinate restricted on T is
    restricted the same way on S and ``need(T)`` is contained in
    ``need(S)``.  The present faces are therefore closed upward, and the
    coboundary column of a present face lands in present faces only.  Every
    character's complex is still built and ranked; the ranks depend only on
    ``have``, so a memo over the 16 masks would be exact, but it makes
    ``cech-audit`` too short for the benchmark to time (ROADMAP #1, #3).
    """
    have = (p >= 0) | (p <= a) << 1 | (q >= 0) << 2 | (q <= b) << 3
    dims = []
    ranks = [0]
    for k in range(4):
        present = [j for j, need in enumerate(_NEEDS[k]) if need & have == need]
        dims.append(len(present))
        if k < 3:
            ranks.append(span_rank([_COBOUNDARY[k][j] for j in present]))
    ranks.append(0)
    return [dims[k] - ranks[k] - ranks[k + 1] for k in range(4)]


@lru_cache(maxsize=None)
def _cech_all(a: int, b: int):
    lo_p, hi_p = min(a, -2 - a) - 1, max(a, -2 - a) + 1
    lo_q, hi_q = min(b, -2 - b) - 1, max(b, -2 - b) + 1
    total = [0, 0, 0, 0]
    for p in range(lo_p, hi_p + 1):
        for q in range(lo_q, hi_q + 1):
            hs = _char_cohomology(p, q, a, b)
            boundary = p in (lo_p, hi_p) or q in (lo_q, hi_q)
            if boundary and any(hs):
                raise BoxInstabilityError(
                    f"character box for O({a},{b}) unstable at ({p},{q})")
            for k in range(4):
                total[k] += hs[k]
    return tuple(total)


def coh_cech_oracle(bundle: LineBundle, i: int) -> int:
    if i < 0 or i > 3:
        return 0
    return _cech_all(bundle.a, bundle.b)[i]


def serre_dual_check(bundle: LineBundle) -> bool:
    """h^i(O(a,b)) = h^{2-i}(O(-2-a, -2-b)), via both computations."""
    dual = LineBundle(-2 - bundle.a, -2 - bundle.b)
    for i in range(3):
        if h_closed(bundle, i) != h_closed(dual, 2 - i):
            return False
        if coh_cech_oracle(bundle, i) != coh_cech_oracle(dual, 2 - i):
            return False
    return True


def euler_char_check(bundle: LineBundle) -> bool:
    chi = sum((-1) ** i * coh_cech_oracle(bundle, i) for i in range(3))
    return chi == euler_characteristic(bundle)


# ---------------------------------------------------------------------------
# The audited table of published dimension formulas.


def _t(j: int) -> int:
    """dim of the degree-j graded piece of a two-variable polynomial ring."""
    return max(j + 1, 0)


def _oracle_form(p: int, n: int, i: int) -> int:
    return sum(coh_cech_oracle(L, i) for L in expand_omega_twist(p, n))


def audit_cohomology_formulas(n_range) -> list:
    """Compare, for each published formula item, the literal text value, the
    implemented closed form, and the Cech oracle.  Item 4's literal index
    reads 2-n where duality forces -2-n; the discrepancy is reported."""
    records = []

    def literal(item, n):
        if item == 2:
            return [(0, _t(n) * _t(n))]
        if item == 3:
            return [(1, 0)]
        if item == 4:
            return [(2, _t(2 - n) * _t(2 - n) if n < -1 else 0)]
        if item == 5:
            return [(0, 2 * _t(n - 2) * _t(n))]
        if item == 6:
            return [(1, _t(-n) * _t(n) + _t(n - 2) * _t(-2 - n)
                     + _t(-2 - n) * _t(n - 2) + _t(n) * _t(-n))]
        if item == 7:
            return [(2, _t(-n) * _t(-2 - n) + _t(-2 - n) * _t(-n))]
        if item == 8:
            return [(0, _t(n - 2) * _t(n - 2)), (1, 0)]
        if item == 9:
            return [(2, _t(-n) * _t(-n) if n <= 0 else 0)]
        # item 1 is the structural identification Omega^2(n) = O(n-2, n-2)
        return [(i, h_closed(LineBundle(n - 2, n - 2), i)) for i in range(3)]

    _ITEM_P = {1: 2, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 1, 8: 2, 9: 2}
    for item in range(1, 10):
        p = _ITEM_P[item]
        for n in n_range:
            for i, lit in literal(item, n):
                impl = coh_closed_form(p, n, i)
                orac = _oracle_form(p, n, i)
                records.append({
                    "item": item, "p": p, "n": n, "i": i,
                    "literal": lit, "implemented": impl, "oracle": orac,
                    "literal_agrees": lit == orac,
                    "implemented_agrees": impl == orac,
                })
    return records


def audit_summary(n_range) -> Verdict:
    """Audit verdict: ok iff the implemented closed forms agree with the
    oracle on every record.  The items cover all nine pairs (p, i) for
    every n, so ``disagreements`` lists each (p, n, i) where they differ."""
    records = audit_cohomology_formulas(n_range)
    disagreements = sorted({(r["p"], r["n"], r["i"]) for r in records
                            if not r["implemented_agrees"]})
    findings = [r for r in records if not r["literal_agrees"]]
    items_flagged = sorted({r["item"] for r in findings})
    return Verdict(not disagreements, {
        "records": len(records),
        "disagreements": disagreements,
        "findings": [{"item": r["item"], "n": r["n"], "i": r["i"],
                      "literal": r["literal"], "oracle": r["oracle"]}
                     for r in findings],
        "items_flagged": items_flagged,
    })


# ---------------------------------------------------------------------------
# Graded filtrations on thickenings.


@dataclass(frozen=True)
class GradedFiltration:
    """pieces[j] = sum of line bundles for the j-th graded layer."""
    pieces: dict

    def all_bundles(self):
        for j in sorted(self.pieces):
            for L in self.pieces[j]:
                yield j, L


def filtration_tilde_omega(m: int, n: int) -> GradedFiltration:
    """Graded layers of the reduced twisted forms on the (n-1)-st thickening:
    layer j carries Omega^m(j) + Omega^{m-1}(j) for j = 1..n-1."""
    if n < 1:
        raise EngineError("level must be >= 1")
    pieces = {}
    for j in range(1, n):
        layer = expand_omega_twist(m, j) + expand_omega_twist(m - 1, j)
        pieces[j] = tuple(sorted(layer))
    return GradedFiltration(pieces)


def h_filtered(filt: GradedFiltration, i: int):
    """(dimension, certified): the sum of layer dimensions is the dimension
    of the filtered object when the listed obstructions vanish; otherwise it
    is only an upper bound and certified is False."""
    total = 0
    certified = True
    for _, L in filt.all_bundles():
        total += coh_cech_oracle(L, i)
    if i == 0:
        for _, L in filt.all_bundles():
            if coh_cech_oracle(L, 1) != 0:
                certified = False
    else:
        # a vanishing claim is certified by layerwise vanishing alone
        if total != 0:
            certified = False
    return total, certified


# ---------------------------------------------------------------------------
# Euler-sequence identification.


def euler_identification_check() -> Verdict:
    """Restricting the Euler sequence of the ambient projective 3-space:
    the four coordinate sections span H^0(O(1,1)) with an invertible
    character matrix, and h^1(O) = 0; hence the restricted twisted
    cotangent bundle has no sections and no first cohomology."""
    basis = [(p, q) for p in (0, 1) for q in (0, 1)]
    index = {c: j for j, c in enumerate(basis)}
    cols = []
    for char in SEGRE_CHARS:
        p, q = char[1], char[3]
        if (p, q) not in index:
            return Verdict(False, {"reason": "character outside H0(O(1,1))"})
        cols.append({index[(p, q)]: 1})
    rank = span_rank(cols)
    h1_o = coh_cech_oracle(LineBundle(0, 0), 1)
    h0_o11 = coh_cech_oracle(LineBundle(1, 1), 0)
    ok = rank == 4 and h1_o == 0 and h0_o11 == 4
    return Verdict(ok, {
        "character_matrix_rank": rank,
        "h1_structure_sheaf": h1_o,
        "h0_twist_1": h0_o11,
        "conclusion": {"h0_restricted_cotangent_twist": 0,
                       "h1_restricted_cotangent_twist": 0} if ok else None,
    })
