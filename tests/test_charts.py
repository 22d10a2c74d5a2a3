"""Chart-algebra models for the naive cotangent complex of a blowup chart.

The distinguished chart algebra is An = k[x, y3, y4]/(x^n); the cone
variables map in by x1 -> x, x2 -> x y3 y4, x3 -> x y3, x4 -> x y4.
Two independent presentations of the same objects are compared throughout,
so most verdicts are self-certifying; the hand-derivable facts pinned here
are the one-variable model (x^(n+1))/(x^2n) and the vanishing of the
restriction-kernel tower (multiplication by x kills the conormal classes).
"""
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segrecone.charts import (
    CHART_IMAGES,
    _G_TERMS,
    _form_labels,
    _alpha_relations,
    _model_beta,
    _model_relations,
    _RingLevel,
    _slice_grades,
    beta_kernel_system,
    chart_grade,
    d1_base_report,
    d1_relative_report,
    verify_chart_splitting,
    verify_ker_d_claims,
    verify_relative_forms_collapse,
)
from segrecone.encech import (
    _chart_d_vec,
    _label_coords,
    character,
    chart_char,
    chart_coords,
)
from segrecone.errors import EngineError
from segrecone.kaehler import qn_algebra
from segrecone.linalg import span_rank, vec_axpy
from segrecone.polyring import mon_deg, monomials_of_degree


def test_chart_images_match_generator_coordinates():
    assert CHART_IMAGES == {0: (1, 0, 0), 1: (1, 1, 1), 2: (1, 1, 0),
                            3: (1, 0, 1)}


def test_chart_grade():
    # x^e y3^by y4^cy with e = (e1, e2, e3, e4) over the cone variables
    assert chart_grade((1, 0, 0, 0)) == (1, 0, 0)
    assert chart_grade((0, 1, 0, 0)) == (1, 1, 1)
    assert chart_grade((0, 0, 1, 1), by=1, cy=2) == (2, 2, 3)


@given(st.tuples(*[st.integers(0, 6)] * 4), st.integers(0, 5),
       st.integers(0, 5))
def test_chart_grade_is_the_chart_zero_coordinates_of_the_character(
        e, by, cy):
    """The closed form chart_grade agrees with encech's chart 0: the grade
    of x^e y3^by y4^cy is the chart-0 coordinates of the character of x^e,
    shifted by (0, by, cy)."""
    a, b, c = chart_coords(0, character(e))
    assert chart_grade(e, by, cy) == (a, b + by, c + cy)


def test_generator_terms_and_beta_match_the_literal_tables():
    """_G_TERMS and _model_beta, read off CHART_IMAGES, equal the tables
    written out by hand for alpha(x2) = x1 y3 y4, alpha(x3) = x1 y3,
    alpha(x4) = x1 y4."""
    assert _G_TERMS == {
        2: ((1, (0, 1, 0, 0), 0, 0), (-1, (1, 0, 0, 0), 1, 1)),
        3: ((1, (0, 0, 1, 0), 0, 0), (-1, (1, 0, 0, 0), 1, 0)),
        4: ((1, (0, 0, 0, 1), 0, 0), (-1, (1, 0, 0, 0), 0, 1)),
    }

    def literal_beta(n, label):
        s, by, cy, i = label
        out = {}

        def put(slot, a, b, c):
            if 0 <= a <= n - 1 and b >= 0 and c >= 0:
                out[(slot, (a, b, c))] = -1

        if i == 2:
            put(3, s + 1, by, cy + 1)
            put(4, s + 1, by + 1, cy)
        elif i == 3:
            put(3, s + 1, by, cy)
        else:
            put(4, s + 1, by, cy)
        return out

    for n in range(1, 5):
        for s in range(-1, n + 1):
            for by in range(-1, 4):
                for cy in range(-1, 4):
                    for i in (2, 3, 4):
                        label = (s, by, cy, i)
                        assert _model_beta(n, label) == literal_beta(n, label)


# The reference walker for forms on An = k[x, y3, y4]/(x^n), written from
# the definition with the variables ordered (y3, y4, x): a label
# (e3, e4, ex, W) is y3^e3 y4^e4 x^ex dW.  Omega^m_{An} is free on these
# with ex <= n - 1, modulo x^(n-1) dx = d(x^n)/n = 0, so a label with dx
# needs ex <= n - 2; a reduced label (vanishing along x = 0) without dx
# needs ex >= 1.
_Y3, _Y4, _X = 0, 1, 2
# wedge index of y3, y4, x among encech's chart-0 generators (x, y3, y4)
_CHART_INDEX = {_Y3: 1, _Y4: 2, _X: 0}


def reference_form_labels(n, m, grade, reduced):
    a, b, c = grade
    out = []
    for wedge in combinations((_Y3, _Y4, _X), m):
        e3 = b - (_Y3 in wedge)
        e4 = c - (_Y4 in wedge)
        ex = a - (_X in wedge)
        if min(e3, e4, ex) < 0 or ex > n - 1 - (_X in wedge):
            continue
        if reduced and ex == 0 and _X not in wedge:
            continue
        out.append((e3, e4, ex, wedge))
    return out


def reference_form_d(label):
    """d(f dW) = sum_v df/dv dv ^ dW, dv moved to its place in W."""
    e3, e4, ex, wedge = label
    exps = (e3, e4, ex)
    out = {}
    for v, e in enumerate(exps):
        if e and v not in wedge:
            sign = (-1) ** sum(1 for w in wedge if w < v)
            new = tuple(x - (j == v) for j, x in enumerate(exps))
            out[(*new, tuple(sorted(wedge + (v,))))] = sign * e
    return out


def test_encech_chart_zero_walker_matches_the_reference_walker():
    """The forms the aq-local checks read (encech's chart 0) are the forms
    of the reference walker: the same labels, under y3, y4, x -> 1, 2, 0,
    and the same rank of d, for both the full and the reduced forms.  No
    d-image term is a truncation relation on either side."""
    cases = [(n, m, (a, b, c), kind)
             for n in range(1, 7) for m in range(4) for a in range(n + 2)
             for b in range(6) for c in range(6)
             for kind in ("omega", "omega_tilde")]
    assert len(cases) == 9504
    for n, m, grade, kind in cases:
        reduced = kind == "omega_tilde"
        ref = reference_form_labels(n, m, grade, reduced)
        u = chart_char(0, grade)
        labels = _form_labels(kind, m, n, u)
        co = chart_coords(0, u)
        assert co == grade
        mapped = {(ex, e3, e4, tuple(sorted(_CHART_INDEX[w] for w in wedge)))
                  for e3, e4, ex, wedge in ref}
        assert mapped == {(*_label_coords(co, T), T) for T in labels}
        assert len(labels) == len(ref)

        ref_cols = [reference_form_d(lab) for lab in ref]
        cols = [_chart_d_vec(0, u, T) for T in labels]
        assert span_rank(cols) == span_rank(ref_cols)
        ref_next = set(reference_form_labels(n, m + 1, grade, reduced))
        assert all(set(col) <= ref_next for col in ref_cols)
        next_labels = set(_form_labels(kind, m + 1, n, u))
        assert all(set(col) <= next_labels for col in cols)


def test_base_cotangent_in_one_variable():
    for n in (2, 3, 4, 5):
        v = d1_base_report(n)
        assert v.ok
        assert v.details["dim_per_y_monomial"] == n - 1
        assert v.details["kernel_exponents"] == list(range(n + 1, 2 * n))
        assert v.details["model"] == f"(x^{n + 1})/(x^{2 * n})"
    assert d1_base_report(1).ok
    assert d1_base_report(1).details["dim_per_y_monomial"] == 0
    with pytest.raises(EngineError):
        d1_base_report(0)


def test_relative_cotangent_ring_vs_model():
    for n in (2, 3):
        v = d1_relative_report(n, ybound=4)
        assert v.ok
        slices = v.details["slices"]
        assert slices  # nonempty: the conormal module is not zero
        for rec in slices.values():
            assert rec["conormal_ring"] == rec["conormal_model"]
            assert rec["d1_ring"] == rec["d1_model"]
        assert any(rec["d1_ring"] > 0 for rec in slices.values())


def test_restriction_kernel_tower_vanishes_at_window_one():
    v = beta_kernel_system(4)
    assert v.ok
    assert v.details["window"] == 1
    assert v.details["kernel_class_dims"] == {2: 0, 3: 0, 4: 0}
    assert v.details["kernel_vectors_checked"] > 0
    with pytest.raises(EngineError):
        beta_kernel_system(1)


def test_chart_splitting():
    v = verify_chart_splitting(2)
    assert v.ok
    assert v.details["mismatches"] == {}
    assert verify_chart_splitting(3, mmax=2, ybound=3).ok


def test_ker_d_claims():
    v = verify_ker_d_claims(2)
    assert v.ok
    assert v.details["mismatches"] == {}
    with pytest.raises(EngineError):
        verify_ker_d_claims(1)


def test_relative_forms_collapse():
    v = verify_relative_forms_collapse(2, ybound=4)
    assert v.ok
    assert v.details["mismatches"] == {}
    assert len(v.details["witnesses"]) == 3
    assert v.details["witnesses"][0] == {
        "relation": "d(y3^0 (x3 - y3 x1))", "hits": "-x1 y3^0 dy3"}


# The per-grade definitions of the slices of J, J^2 and J_n, written out
# from the generators g2 = x2 - x1 y3 y4, g3 = x3 - x1 y3, g4 = x4 - x1 y4
# of J = ker(Qn[y3, y4] -> An) and the relations of the conormal model.
# A ring monomial is (e, by, cy) for x^e y3^by y4^cy; a model label is
# (s, by, cy, i) for x1^s y3^by y4^cy dx_i.
_GENS = {2: (((0, 1, 0, 0), 0, 0, 1), ((1, 0, 0, 0), 1, 1, -1)),
         3: (((0, 0, 1, 0), 0, 0, 1), ((1, 0, 0, 0), 1, 0, -1)),
         4: (((0, 0, 0, 1), 0, 0, 1), ((1, 0, 0, 0), 0, 1, -1))}
_GEN_GRADE = {2: (1, 1, 1), 3: (1, 1, 0), 4: (1, 0, 1)}


def _minus(g1, g2):
    return tuple(u - v for u, v in zip(g1, g2))


def reference_ring_monomials(alg, grade):
    a, b, c = grade
    out = []
    for e in alg.basis:
        by, cy = b - e[1] - e[2], c - e[1] - e[3]
        if mon_deg(e) == a and by >= 0 and cy >= 0:
            out.append((e, by, cy))
    return out


def reference_times_generator(alg, vec, i):
    out = {}
    for (e, by, cy), cf in vec.items():
        for x, dy3, dy4, sign in _GENS[i]:
            prod = tuple(u + v for u, v in zip(e, x))
            for mon, c in alg.nf_mon(prod).items():
                vec_axpy(out, sign * cf * c, {(mon, by + dy3, cy + dy4): 1})
    return out


def reference_j_slice(alg, grade):
    return [reference_times_generator(alg, {mono: 1}, i) for i in (2, 3, 4)
            for mono in reference_ring_monomials(
                alg, _minus(grade, _GEN_GRADE[i]))]


def reference_j2_slice(alg, grade):
    out = []
    for i in (2, 3, 4):
        for j in (2, 3, 4):
            below = _minus(_minus(grade, _GEN_GRADE[i]), _GEN_GRADE[j])
            for mono in reference_ring_monomials(alg, below):
                gi = reference_times_generator(alg, {mono: 1}, i)
                out.append(reference_times_generator(alg, gi, j))
    return out


def reference_model_relations(n, grade):
    """The multiples u * (x1 dx2 - y4 x1 dx3 - y3 x1 dx4) and u * alpha(d mu)
    for deg mu = n and every monomial u of An of the complementary grade;
    alpha(d mu) = sum_i d mu/dx_i (x1, x1 y3 y4, x1 y3, x1 y4) dx_i."""
    def an_multipliers(g):
        a, b, c = g
        return [g] if 0 <= a <= n - 1 and b >= 0 and c >= 0 else []

    def put(v, cf, s, by, cy, i):
        if s <= n - 1:
            vec_axpy(v, cf, {(s, by, cy, i): 1})

    out = []
    for s, by, cy in an_multipliers(_minus(grade, (2, 1, 1))):
        v = {}
        put(v, 1, s + 1, by, cy, 2)
        put(v, -1, s + 1, by, cy + 1, 3)
        put(v, -1, s + 1, by + 1, cy, 4)
        out.append(v)
    for mu in monomials_of_degree(4, n):
        for u in an_multipliers(_minus(grade, chart_grade(mu))):
            v = {}
            for i in (2, 3, 4):
                if mu[i - 1]:
                    partial = list(mu)
                    partial[i - 1] -= 1
                    s, by, cy = chart_grade(tuple(partial))
                    put(v, mu[i - 1], s + u[0], by + u[1], cy + u[2], i)
            out.append(v)
    return out


def _same_span(vs, ws):
    vs, ws = list(vs), list(ws)
    return span_rank(vs) == span_rank(ws) == span_rank(vs + ws)


def test_level_tables_span_the_per_grade_slices():
    """For n <= 6 and every grade of _slice_grades(n, 6), the per-level
    tables of d1_relative_report and beta_kernel_system span the slices of
    J, J^2 and J_n that the per-grade definitions above span; the model
    relations also at x-grade n + 1, where beta_kernel_system reads level n
    as the lower level."""
    for n in range(1, 7):
        alg = qn_algebra(n)
        ring = _RingLevel(n)
        alpha = _alpha_relations(n)
        if n >= 2:
            assert [e for e, _, _ in ring.monomials((1, 6, 6))] == sorted(
                monomials_of_degree(4, 1))
        for grade in _slice_grades(n, 6):
            assert ring.monomials(grade) == reference_ring_monomials(alg,
                                                                     grade)
            assert _same_span((v for _, v in ring.j_vectors(grade)),
                              reference_j_slice(alg, grade))
            j2 = reference_j2_slice(alg, grade)
            ech = ring.j2_echelon(grade)
            assert ech.rank == span_rank(j2)
            assert all(ech.contains(w) for w in j2)
        for grade in _slice_grades(n + 1, 6):
            assert _same_span(_model_relations(n, grade, alpha),
                              reference_model_relations(n, grade))


def test_chart_reports_carry_no_state_between_calls():
    """The level tables live for one call: a report gives the same details
    run twice, and before or after the other report."""
    def relative():
        return d1_relative_report(3, ybound=4).details

    def kernels():
        v = beta_kernel_system(4, ybound=4)
        return v.details, v.witness

    first_relative = relative()
    first_kernels = kernels()
    assert relative() == first_relative
    assert kernels() == first_kernels
    assert relative() == first_relative
