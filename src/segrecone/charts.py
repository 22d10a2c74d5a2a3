"""Local chart analysis of the truncated cone along the exceptional fiber.

The chart algebra is An = A[x1]/(x1^n) with A = k[y3, y4]; it receives the
truncated cone algebra Qn through

    x1 -> x1,   x2 -> y3*y4*x1,   x3 -> y3*x1,   x4 -> y4*x1,

which kills the cone relation and carries the degree-n truncation ideal onto
(x1^n).  Everything here is graded by the exponents of (x1, y3, y4) of the
image monomial ("chart grade"), so each question splits into slices of
dimension at most a handful and all linear algebra is exact.

The module provides the imperfection modules D1(An/A) and D1(An/Qn), the
explicit conormal model G_n/J_n for the latter, the window-1 vanishing of the
reduced conormal tower, and the structure of full and relative differential
forms on An.

The generator images live only in CHART_IMAGES; the conormal generators,
their grades and beta read them from there.  The forms on An come from
encech: An is its chart 0, with fiber x1 and base coordinates y3, y4, so
the forms of chart grade (a, b, c) with a < n are the chart-0 labels of
encech's walker at the character chart_char(0, (a, b, c)), with d from
_chart_d_vec; at a >= n, past encech's cut, there are none.  Their wedge
indices 0, 1, 2 stand for dx1, dy3, dy4.

d1_relative_report and beta_kernel_system walk 49 chart grades per x-grade
(y-grades up to 6), so they build what a level shares once per report
call: the Qn basis sorted by degree (_RingLevel) and the truncation
relations alpha(d mu) grouped by the chart grade of mu (_alpha_relations),
from which each grade's slice of J_n is read.  beta_kernel_system holds two
levels' relations, and the lower level's are the ones it built as the upper
level on the pass before.  Nothing outlives the call, and nothing is built
at import: a process-wide cache of these tables raised the peak RSS of
`verify all` by 3.6 MB (13 %).  Within a call, keeping every product g_i m
of a level raised the RSS growth of a process running only
d1_relative_report from 0.4 to 2.4 MB, and keeping every grade's relations
that of one running only beta_kernel_system from 0.3 to 1.1 MB (2 vCPUs,
Python 3.11.7); the tables built here stay at 0.4 and 0.1 MB.
"""

from __future__ import annotations

from .encech import _chart_d_vec, _labels, chart_char, xdeg
from .errors import EngineError
from .kaehler import qn_algebra
from .linalg import Echelon, column_dependencies, span_rank, vec_axpy
from .polyring import mon_deg, mon_mul, monomials_of_degree
from .verdict import Verdict

# images of the cone variables in An, written as (x1-exp, y3-exp, y4-exp)
CHART_IMAGES = {0: (1, 0, 0), 1: (1, 1, 1), 2: (1, 1, 0), 3: (1, 0, 1)}


def chart_grade(e, by=0, cy=0):
    """Grade of the monomial x^e * y3^by * y4^cy of Qn[y3, y4]."""
    return (mon_deg(e), e[1] + e[2] + by, e[1] + e[3] + cy)


# ---------------------------------------------------------------------------
# D1(An/A): kernel of (x^n)/(x^2n) -> An dx.


def d1_base_report(n: int) -> Verdict:
    """D1(An/A) inside (x^n)/(x^2n): only the generator x^n maps to a nonzero
    form, so the kernel is (x^(n+1))/(x^2n), of dimension n-1 per y-monomial."""
    if n < 1:
        raise EngineError("level must be >= 1")
    # columns: d(x^(n+j)) = (n+j) x^(n+j-1) dx in An dx, j = 0..n-1
    cols = []
    for j in range(n):
        img = {}
        if n + j - 1 <= n - 1:
            img[n + j - 1] = n + j
        cols.append(img)
    kernel = column_dependencies(cols)
    kernel_exponents = sorted(n + j for dep in kernel for j in dep
                              if len(dep) == 1)
    expected = list(range(n + 1, 2 * n))
    ok = (len(kernel) == n - 1 and kernel_exponents == expected)
    return Verdict(ok, {
        "level": n,
        "dim_per_y_monomial": len(kernel),
        "kernel_exponents": kernel_exponents,
        "model": f"(x^{n + 1})/(x^{2 * n})",
    })


# ---------------------------------------------------------------------------
# Rn = Qn[y3, y4] one level at a time: slice bases, products with the
# generators of J, and the slices of J and J^2.


# generators g_i = x_i - alpha(x_i), i = 2, 3, 4, as lists of
# (coeff, e_extra, dy3, dy4) acting by multiplication; alpha(x_i) is x1
# times the y-part of CHART_IMAGES[i - 1], which is also the grade of g_i
_G_TERMS = {i: ((1, tuple(int(j == i - 1) for j in range(4)), 0, 0),
                (-1, (1, 0, 0, 0), *CHART_IMAGES[i - 1][1:]))
            for i in (2, 3, 4)}


def _times_terms(s, t):
    """The product of two sums of terms (coeff, e_extra, dy3, dy4)."""
    out = {}
    for c1, e1, b1, d1 in s:
        for c2, e2, b2, d2 in t:
            vec_axpy(out, c1 * c2, {(mon_mul(e1, e2), b1 + b2, d1 + d2): 1})
    return tuple((c, e, b, d) for (e, b, d), c in out.items())


# the products g_i g_j, i <= j, that span J^2, as sums of the same terms
_J2_TERMS = {(i, j): _times_terms(_G_TERMS[i], _G_TERMS[j])
             for i in (2, 3, 4) for j in (2, 3, 4) if i <= j}


def _grade_sub(g1, g2):
    return (g1[0] - g2[0], g1[1] - g2[1], g1[2] - g2[2])


class _RingLevel:
    """Rn = Qn[y3, y4] at one level n, sliced by chart grade.

    It sorts the Qn basis by degree once.  A multiple of a ring monomial
    by g_i, or by g_i g_j, is read term by term off the normal forms in Qn
    of its x-parts, which the algebra caches, so a spanning vector of J or
    of J^2 costs two to four cached normal forms: J^2 is spanned by the
    multiples of the products g_i g_j, not by g_j times the multiples of
    g_i."""

    def __init__(self, n: int):
        alg = qn_algebra(n)
        self._nf = alg.nf_mon
        self._by_degree = {}
        for e in alg.basis:
            self._by_degree.setdefault(mon_deg(e), []).append(e)

    def monomials(self, grade):
        """Monomials x^e y3^by y4^cy of Rn in the given chart grade."""
        a, b, c = grade
        out = []
        for e in self._by_degree.get(a, ()):
            by = b - e[1] - e[2]
            cy = c - e[1] - e[3]
            if by >= 0 and cy >= 0:
                out.append((e, by, cy))
        return out

    def times(self, mono, terms):
        """mono times a sum of terms (coeff, e_extra, dy3, dy4), as a vector
        over ring monomials."""
        (e1, e2, e3, e4), by, cy = mono
        out = {}
        for cf, (x1, x2, x3, x4), dy3, dy4 in terms:
            nf = self._nf((e1 + x1, e2 + x2, e3 + x3, e4 + x4))
            if nf:
                vec_axpy(out, cf, {(mon, by + dy3, cy + dy4): c
                                   for mon, c in nf.items()})
        return out

    def j_vectors(self, grade):
        """Spanning vectors of the slice of J = (g2, g3, g4) in ring
        coordinates, tagged by (multiplier monomial, generator index)."""
        vecs = []
        for i in (2, 3, 4):
            g_grade = CHART_IMAGES[i - 1]
            for mono in self.monomials(_grade_sub(grade, g_grade)):
                v = self.times(mono, _G_TERMS[i])
                if v:
                    vecs.append(((mono, i), v))
        return vecs

    def j2_echelon(self, grade):
        ech = Echelon()
        for (i, j), terms in _J2_TERMS.items():
            below = _grade_sub(_grade_sub(grade, CHART_IMAGES[i - 1]),
                               CHART_IMAGES[j - 1])
            for mono in self.monomials(below):
                w = self.times(mono, terms)
                if w:
                    ech.add(w)
        return ech


def _d_rel_ring(n: int, vec):
    """y-differential of a ring vector, with coefficients pushed to An.
    Returns a vector over labels (slot, an_monomial), slot in {3, 4}."""
    out = {}
    for (e, by, cy), cf in vec.items():
        if mon_deg(e) <= n - 1:
            vec_axpy(out, cf, {(3, chart_grade(e, by - 1, cy)): by,
                               (4, chart_grade(e, by, cy - 1)): cy})
    return out


# ---------------------------------------------------------------------------
# The conormal model G_n/J_n: free on dx2, dx3, dx4 over An.


def _model_slice_labels(n: int, grade):
    """Basis of the slice of G_n = An dx2 + An dx3 + An dx4: the coefficient
    monomial is forced by the grade, so at most three labels (s, by, cy, i)."""
    return [(*mono, i) for i in (2, 3, 4) for mono in
            _an_monomials(n, _grade_sub(grade, CHART_IMAGES[i - 1]))]


def _an_monomials(n: int, grade):
    a, b, c = grade
    if 0 <= a <= n - 1 and b >= 0 and c >= 0:
        return [(a, b, c)]
    return []


def _alpha_relations(n: int) -> dict:
    """alpha(d mu) for the degree-n monomials mu, in the order of
    monomials_of_degree, grouped by the chart grade of mu; alpha(d mu)
    itself is omitted when it is zero (mu = x1^n)."""
    table = {}
    for mu in monomials_of_degree(4, n):
        v = {}
        for i in (2, 3, 4):
            if mu[i - 1]:
                partial = tuple(mu[j] - (j == i - 1) for j in range(4))
                v[(*chart_grade(partial), i)] = mu[i - 1]
        if v:
            table.setdefault(chart_grade(mu), []).append(v)
    return table


def _model_relations(n: int, grade, alpha):
    """Slice of J_n, with alpha = _alpha_relations(n): the multiple of the
    cone syzygy x1 dx2 - y4 x1 dx3 - y3 x1 dx4, then the y-multiples of the
    alpha(d mu).  The syzygy has grade (2, 1, 1) and coefficients of
    x-degree 1, so its multiples by x1^s vanish in An for s >= n - 1.
    alpha(d mu) has x-grade n and coefficients of x-degree n - 1, so its
    multiples by x1 vanish."""
    a, b, c = grade
    vecs = []
    if 2 <= a <= n and b >= 1 and c >= 1:
        # dx_i carries alpha of d(x1 x2 - x3 x4)/dx_i: x1, -x4, -x3; the
        # multiplier is x1^(a-2) y3^(b-1) y4^(c-1)
        vecs.append({(a - 2 + ds, b - 1 + db, c - 1 + dc, i): cf
                     for i, cf, (ds, db, dc) in ((2, 1, CHART_IMAGES[0]),
                                                 (3, -1, CHART_IMAGES[3]),
                                                 (4, -1, CHART_IMAGES[2]))})
    if a == n:
        for (_, mb, mc), rels in alpha.items():
            if mb <= b and mc <= c:
                vecs.extend({(s, by + b - mb, cy + c - mc, i): cf
                             for (s, by, cy, i), cf in r.items()}
                            for r in rels)
    return vecs


def _model_beta(n: int, label):
    """beta on the model: dx_i -> -d_y(alpha(x_i)), An coefficients, with
    alpha(x_i) = x1 y3^ib y4^ic read off CHART_IMAGES[i - 1].  Labels on the
    target are (slot, (a, b, c)) with slot the dy index."""
    s, by, cy, i = label
    _, ib, ic = CHART_IMAGES[i - 1]
    out = {}
    for slot, e, grade in ((3, ib, (s + 1, by + ib - 1, cy + ic)),
                           (4, ic, (s + 1, by + ib, cy + ic - 1))):
        if e and _an_monomials(n, grade):
            out[(slot, grade)] = -e
    return out


def _model_beta_vec(n, vec):
    out = {}
    for lab, cf in vec.items():
        vec_axpy(out, cf, _model_beta(n, lab))
    return out


def _lift_model_label(label):
    """Section of alpha on multiplier monomials: (s, by, cy, i) -> ring pair."""
    s, by, cy, i = label
    return ((s, 0, 0, 0), by, cy), i


def _slice_grades(n: int, ybound: int):
    for a in range(1, n + 1):
        for b in range(0, ybound + 1):
            for c in range(0, ybound + 1):
                yield (a, b, c)


def d1_relative_report(n: int, ybound: int = 6) -> Verdict:
    """Compare J/J^2 and D1(An/Qn) against the conormal model G_n/J_n,
    slice by slice up to the stated y-grade bound.

    Ring side: J = ker(Qn[y3,y4] -> An) with its three binomial generators;
    J/J^2 and the kernel of d: J/J^2 -> An dy3 + An dy4 are computed from
    honest ideal arithmetic.  Model side: the free module on dx2, dx3, dx4
    modulo the cone syzygy and the truncation relations alpha(d mu)."""
    ring = _RingLevel(n)
    alpha = _alpha_relations(n)
    slices = {}
    mismatched = []
    for grade in _slice_grades(n, ybound):
        jvecs = ring.j_vectors(grade)
        j_ech = Echelon(v for _, v in jvecs)
        dim_j = j_ech.rank
        j2_ech = ring.j2_echelon(grade)
        dim_j2 = j2_ech.rank
        d_rank = span_rank([_d_rel_ring(n, v) for _, v in jvecs])
        dim_jj2_ring = dim_j - dim_j2
        d1_ring = dim_j - d_rank - dim_j2

        labels = _model_slice_labels(n, grade)
        rels = _model_relations(n, grade, alpha)
        rel_rank = span_rank(rels)
        dim_model = len(labels) - rel_rank
        beta_cols = [_model_beta(n, lab) for lab in labels]
        beta_rank = span_rank(beta_cols)
        ker_beta = len(labels) - beta_rank
        d1_model = ker_beta - rel_rank

        # beta must vanish on J_n (the model relations are relatively closed)
        for r in rels:
            if _model_beta_vec(n, r):
                raise EngineError("model relation with nonzero differential"
                                  f" at level {n}, chart grade {grade}")
        # the model relations must hold in J/J^2: lift and reduce against J^2
        for r in rels:
            lifted = {}
            for lab, cf in r.items():
                mono, i = _lift_model_label(lab)
                vec_axpy(lifted, cf, ring.times(mono, _G_TERMS[i]))
            if not j2_ech.contains(lifted):
                raise EngineError("model relation does not lift into J^2"
                                  f" at level {n}, chart grade {grade}")

        if dim_jj2_ring != dim_model or d1_ring != d1_model:
            mismatched.append(list(grade))
        if dim_jj2_ring or dim_model:
            slices[grade] = {
                "conormal_ring": dim_jj2_ring,
                "conormal_model": dim_model,
                "d1_ring": d1_ring,
                "d1_model": d1_model,
            }
    return Verdict(not mismatched, {
        "level": n, "ybound": ybound,
        "slices": {str(k): v for k, v in slices.items()},
        "mismatched_grades": mismatched})


def beta_kernel_system(nmax: int, ybound: int = 6) -> Verdict:
    """Window-1 vanishing of the restriction-kernel tower.

    D1(An/Qn) restricts onto the locus x1 = 0; K_n is the kernel of that
    restriction: classes with a representative all of whose coefficients
    are divisible by x1.  The closed form says K_n is carried by
    x1^(n-1) dx3 and x1^(n-1) dx4.  The transitions truncate coefficients
    mod x1^n; the certificate checks, slice by slice within the y bound,
    that the carrier spans K_n, that relations transport to relations, and
    that every transition K_{n+1} -> K_n is the zero map."""
    if nmax < 2:
        raise EngineError("need at least two levels")
    checked = 0
    kernel_dims = {m: 0 for m in range(2, nmax + 1)}
    hi_alpha = _alpha_relations(1)
    for n in range(1, nmax):
        hi = n + 1
        # level n's truncation relations were level hi's on the last pass
        lo_alpha, hi_alpha = hi_alpha, _alpha_relations(hi)
        for grade in _slice_grades(hi, ybound):
            hi_labels = _model_slice_labels(hi, grade)
            if not hi_labels:
                continue
            hi_rels = _model_relations(hi, grade, hi_alpha)
            rel_rank = span_rank(hi_rels)
            lo_ech = Echelon(_model_relations(n, grade, lo_alpha))

            def truncate(vec):
                return {lab: cf for lab, cf in vec.items() if lab[0] <= n - 1}

            # transitions are defined on the model: relations must map to
            # relations, kernels to kernels
            for r in hi_rels:
                t = truncate(r)
                if t and not lo_ech.contains(t):
                    return Verdict(False, {"failed": "relation transport",
                                           "level": n, "grade": grade})
            ker_vecs = column_dependencies(
                [_model_beta(hi, lab) for lab in hi_labels])
            in_d1 = [{hi_labels[i]: cf for i, cf in kv.items()}
                     for kv in ker_vecs]
            # restriction to x1 = 0 kills exactly the vectors with no
            # x1^0 part (the relations all sit in x1-degree >= 1)
            exc = [{lab: cf for lab, cf in v.items() if lab[0] == 0}
                   for v in in_d1]
            k_vectors = []
            for dep in column_dependencies(exc):
                w = {}
                for i, cf in dep.items():
                    vec_axpy(w, cf, in_d1[i])
                k_vectors.append(w)
            kernel_dims[hi] += len(k_vectors) - rel_rank
            # closed-form carrier check: x1^(hi-1) dx3 and x1^(hi-1) dx4
            # plus the relations span the same slice as the kernel
            k_ech = Echelon(k_vectors)
            carrier_ech = Echelon(hi_rels)
            for lab in hi_labels:
                if lab[0] == hi - 1 and lab[3] in (3, 4):
                    single = {lab: 1}
                    if not k_ech.contains(single):
                        return Verdict(False, {
                            "failed": "carrier not in kernel",
                            "level": hi, "grade": grade,
                            "label": str(lab)})
                    carrier_ech.add(single)
            if carrier_ech.rank != k_ech.rank:
                return Verdict(False, {
                    "failed": "closed-form carrier mismatch",
                    "level": hi, "grade": grade,
                    "kernel_rank": k_ech.rank,
                    "carrier_rank": carrier_ech.rank})
            for w in k_vectors:
                t = truncate(w)
                if t and not lo_ech.contains(t):
                    return Verdict(False, {
                        "window": 1, "level": n, "grade": grade,
                        "failed": "nonzero composite"},
                        {"vector": {str(k): str(v) for k, v in w.items()}})
                checked += 1
    return Verdict(True, {"window": 1, "levels": list(range(1, nmax + 1)),
                          "ybound": ybound, "kernel_vectors_checked": checked,
                          "kernel_class_dims": kernel_dims})


# ---------------------------------------------------------------------------
# Differential forms on An itself: splitting, kernels of d, relative collapse.


def _form_labels(kind, m, n, u):
    """The wedge labels T of the slice of Omega^m_{An} at the character u
    of a chart grade (kind "omega"), or of its reduced part vanishing along
    x1 = 0 (kind "omega_tilde").  The fiber exponent of every chart-0 label
    at u is xdeg(u) - [0 in T], and the truncation makes it a relation
    exactly when xdeg(u) >= n (see encech.character_support).  So the slice
    is zero past the cut, and below it every label of encech's walker is a
    basis vector.

    The slice is closed under d, _chart_d_vec(0, u, T), with no filter:
    d keeps the character u, so it keeps the side of the cut.  d of a
    reduced form is reduced: a term that adds dx1 needs no factor x1, and a
    term that adds dy3 or dy4 keeps both the x1 exponent and whether dx1 is
    in the wedge."""
    return _labels(kind, m, 0, (), u) if xdeg(u) < n else []


def verify_chart_splitting(n: int, mmax: int = 3, ybound: int = 4) -> Verdict:
    """Omega^m_{An} splits as (Omega^m_A ⊗ Bn) + (Omega^{m-1}_A ⊗ Omega^1_Bn)
    in every chart grade: the slice dimension of encech's chart-0 walker
    must match the closed-form count."""
    ok = True
    slices = {}
    for m in range(0, mmax + 1):
        for b in range(0, ybound + 1):
            for c in range(0, ybound + 1):
                for a in range(0, n + 1):
                    grade = (a, b, c)
                    model = len(_form_labels("omega", m, n,
                                             chart_char(0, grade)))
                    base = _omega_a_dim(m, b, c) * _bn_dim(n, a)
                    mixed = _omega_a_dim(m - 1, b, c) * _omega_bn_dim(n, a)
                    if model != base + mixed:
                        ok = False
                        slices[str((m, grade))] = (model, base + mixed)
    return Verdict(ok, {"level": n, "mmax": mmax, "ybound": ybound,
                        "mismatches": slices})


def _omega_a_dim(m, b, c):
    """dim of the (b, c) slice of Omega^m_A, A = k[y3, y4]."""
    if m == 0:
        return 1
    if m == 1:
        return (1 if b >= 1 else 0) + (1 if c >= 1 else 0)
    if m == 2:
        return 1 if (b >= 1 and c >= 1) else 0
    return 0


def _bn_dim(n, a):
    return 1 if 0 <= a <= n - 1 else 0


def _omega_bn_dim(n, a):
    # Omega^1_Bn = Bn dx / (x^{n-1} dx): coefficient degree a-1 <= n-2
    return 1 if 1 <= a <= n - 1 else 0


def verify_ker_d_claims(n: int, mmax: int = 3, ybound: int = 4) -> Verdict:
    """Kernels of d on the reduced complex (forms vanishing along x1 = 0).

    Checks per chart grade: d∘d = 0; d is injective on reduced functions;
    closed reduced 1-forms biject with Omega^1_{An/A}; for m >= 2 the map
    D(omega ⊗ x^s) = d(omega x^s) identifies Omega^{m-1}_A ⊗ x*Bn with the
    closed reduced m-forms."""
    if n < 2:
        raise EngineError("needs level >= 2")
    ok = True
    detail = {}
    for b in range(0, ybound + 1):
        for c in range(0, ybound + 1):
            for a in range(0, n + 1):
                grade = (a, b, c)
                u = chart_char(0, grade)
                forms = [_form_labels("omega_tilde", m, n, u)
                         for m in range(0, mmax + 1)]
                ker_dims = {}
                for m, labels in enumerate(forms):
                    # d of a reduced form is reduced; rank-nullity on the slice
                    cols = [_chart_d_vec(0, u, T) for T in labels]
                    ker_dims[m] = len(labels) - span_rank(cols)
                    # ranks alone miss a d that is off by a scale on one
                    # wedge coordinate; such a d fails d∘d = 0
                    for T, col in zip(labels, cols):
                        dd = {}
                        for T2, cf in col.items():
                            vec_axpy(dd, cf, _chart_d_vec(0, u, T2))
                        if dd:
                            ok = False
                            detail[str(("d^2", m, grade))] = str(T)
                if ker_dims[0] != 0:
                    ok = False
                    detail[str((0, grade))] = ker_dims[0]
                # Omega^1_{An/A} = A ⊗ Omega^1_Bn: one basis form
                # x^{a-1} y^b y^c dx per grade with 1 <= a <= n-1
                rel_dim = _omega_bn_dim(n, a)
                if mmax >= 1 and ker_dims[1] != rel_dim:
                    ok = False
                    detail[str((1, grade))] = (ker_dims[1], rel_dim)
                for m in range(2, mmax + 1):
                    # source: Omega^{m-1}_A ⊗ x Bn in this grade, where x Bn
                    # has x^a for 1 <= a <= n-1, as Omega^1_Bn has x^{a-1} dx
                    src = _omega_a_dim(m - 1, b, c) * _omega_bn_dim(n, a)
                    # a reduced label without dx1 has fiber exponent >= 1
                    rank = span_rank([_chart_d_vec(0, u, T)
                                      for T in forms[m - 1] if 0 not in T])
                    if rank != src or ker_dims[m] != src:
                        ok = False
                        detail[str((m, grade))] = (ker_dims[m], rank, src)
    return Verdict(ok, {"level": n, "mmax": mmax, "ybound": ybound,
                        "mismatches": detail})


def verify_relative_forms_collapse(n: int, ybound: int = 6) -> Verdict:
    """Omega^1_{An/Qn} collapses onto the forms of the exceptional chart:
    the cokernel of beta on An dy3 + An dy4 has exactly the dimensions of
    Omega^1_A, and x1^j y3^k dy3 is hit by an explicit element of J."""
    ok = True
    slices = {}
    grades = [(a, b, c) for a in range(0, n + 1)
              for b in range(0, ybound + 1) for c in range(0, ybound + 1)]
    for grade in grades:
        a, b, c = grade
        target = [(slot, mono) for slot, dy in ((3, (0, 1, 0)), (4, (0, 0, 1)))
                  for mono in _an_monomials(n, _grade_sub(grade, dy))]
        if not target:
            continue
        img = [_model_beta(n, lab) for lab in _model_slice_labels(n, grade)]
        coker = len(target) - span_rank(img)
        # Omega^1_A slice: x-grade must be zero
        expected = _omega_a_dim(1, b, c) if a == 0 else 0
        if coker != expected:
            ok = False
            slices[str(grade)] = (coker, expected)
    witnesses = []
    if n >= 2:
        for j in range(0, min(3, ybound)):
            # beta(y3^j g3) = -x1 y3^j dy3 in the model
            vec = _model_beta_vec(n, {(0, j, 0, 3): 1})
            want = {(3, (1, j, 0)): -1}
            if vec != want:
                ok = False
            witnesses.append({"relation": f"d(y3^{j} (x3 - y3 x1))",
                              "hits": f"-x1 y3^{j} dy3"})
    return Verdict(ok, {"level": n, "ybound": ybound, "mismatches": slices,
                        "witnesses": witnesses})
