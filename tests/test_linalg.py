"""Exact sparse linear algebra: echelon forms, kernels, quotients."""
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segrecone import linalg
from segrecone.errors import EngineError
from segrecone.linalg import (
    Echelon,
    LinearMap,
    QuotientSpace,
    SpanSolver,
    VectorSpaceWithBasis,
    column_dependencies,
    express_in_span,
    induced_quotient_map,
    span_rank,
    vec_add,
    vec_axpy,
    vec_clean,
    vec_scale,
)

F = Fraction

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
vecs = st.dictionaries(st.integers(0, 4), fracs, max_size=5).map(vec_clean)
mats = st.lists(vecs, min_size=0, max_size=5)


def combine(coeffs, vectors):
    out = {}
    for c, v in zip(coeffs, vectors):
        out = vec_add(out, vec_scale(c, v))
    return out


# -- plain vector helpers ---------------------------------------------------

def test_vec_clean_drops_zeros():
    assert vec_clean({0: F(0), 1: F(2), 2: 0}) == {1: F(2)}


def test_vec_arithmetic():
    u = {0: F(1), 1: F(2)}
    v = {1: F(-2), 2: F(3)}
    assert vec_add(u, v) == {0: F(1), 2: F(3)}
    assert vec_add(u, vec_scale(-1, u)) == {}
    assert vec_scale(F(1, 2), v) == {1: F(-1), 2: F(3, 2)}
    assert vec_scale(0, v) == {}
    out = dict(u)
    assert vec_axpy(out, F(4, 2), v) is out  # in place
    assert out == {0: 1, 1: -2, 2: 6} and type(out[2]) is int
    assert vec_axpy(out, 0, v) == {0: 1, 1: -2, 2: 6}
    assert vec_axpy(out, -2, {1: -1, 2: 3}) == {0: 1}


# -- echelon accumulator ----------------------------------------------------

def test_rank_of_proportional_rows_is_one():
    assert span_rank([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]) == 1


def test_echelon_add_reports_rank_growth():
    ech = Echelon()
    assert ech.add({0: F(1), 1: F(1)}) is True
    assert ech.add({0: F(2), 1: F(2)}) is False
    assert ech.rank == 1
    assert ech.add({1: F(1)}) is True
    assert ech.rank == 2


def test_echelon_contains_and_reduce():
    ech = Echelon()
    ech.add({0: F(1), 2: F(1)})
    ech.add({1: F(1), 2: F(-1)})
    assert ech.contains({0: F(3), 1: F(3)})  # 3*(row0) + 3*(row1) hits chars 0,1
    assert not ech.contains({2: F(1)})
    # residual is zero exactly on the span and fixed away from pivots
    assert ech.reduce({0: F(1), 2: F(1)}) == {}
    assert ech.reduce({3: F(5)}) == {3: F(5)}


def test_add_for_dependency_yields_explicit_relation():
    ech = Echelon(track=True)
    rows = {"a": {0: F(1)}, "b": {1: F(1)}, "c": {0: F(2), 1: F(3)}}
    assert ech.add_for_dependency(rows["a"], "a") is None
    assert ech.add_for_dependency(rows["b"], "b") is None
    dep = ech.add_for_dependency(rows["c"], "c")
    assert dep is not None and dep["c"] == 1
    total = {}
    for tag, c in dep.items():
        total = vec_add(total, vec_scale(c, rows[tag]))
    assert total == {}


@given(mats)
def test_reduce_is_idempotent_and_vanishes_on_span(rows):
    ech = Echelon()
    for v in rows:
        ech.add(v)
    for v in rows:
        assert ech.reduce(v) == {}
    for v in rows:
        r = ech.reduce(vec_scale(F(7, 2), v))
        assert ech.reduce(r) == r == {}


@given(mats, vecs)
def test_reduce_is_linear(rows, v):
    ech = Echelon()
    for r in rows:
        ech.add(r)
    twice = vec_add(ech.reduce(v), ech.reduce(v))
    assert ech.reduce(vec_scale(2, v)) == twice


# -- span queries -----------------------------------------------------------

def test_span_rank_counts_independent_vectors():
    e0, e1 = {0: F(1)}, {1: F(1)}
    assert span_rank([e0, e1, vec_add(e0, e1)]) == 2
    assert span_rank([{}, {}]) == 0


def test_express_in_span_recovers_coefficients():
    basis = [{0: F(1)}, {1: F(1)}, {0: F(1), 1: F(1)}]
    target = {0: F(2), 1: F(5)}
    coeffs = express_in_span(basis, target)
    assert coeffs is not None
    assert combine(coeffs, basis) == target


def test_express_in_span_rejects_outside_vectors():
    assert express_in_span([{0: F(1)}], {1: F(1)}) is None


@given(mats, st.lists(fracs, min_size=5, max_size=5))
def test_express_in_span_roundtrip(rows, coeffs):
    target = combine(coeffs, rows)
    got = express_in_span(rows, target)
    assert got is not None
    assert combine(got, rows) == target


# -- span solvers -----------------------------------------------------------

@given(mats, st.lists(fracs, min_size=5, max_size=5), vecs)
def test_span_solver_matches_express_in_span(rows, coeffs, probe):
    target = combine(coeffs, rows)
    pool = rows + [target] + rows[:2]  # dependent vectors in the pool
    solver = SpanSolver(pool)
    got = solver.express(target)
    assert got == express_in_span(pool, target)
    assert combine(got, pool) == target
    assert solver.express(probe) == express_in_span(pool, probe)


def test_span_solver_rejects_a_non_member():
    solver = SpanSolver([{0: 1, 1: 1}, {0: 2, 1: 2}])
    assert solver.express({1: 1}) is None
    assert solver.express({0: 3, 1: 3}) == [3, 0]


@given(mats, st.lists(vecs, min_size=1, max_size=4))
def test_span_solver_answers_repeated_queries_identically(rows, targets):
    solver = SpanSolver(rows)
    first = [solver.express(t) for t in targets]
    # reversed, so every query also follows the others, failed ones included
    again = [solver.express(t) for t in reversed(targets)][::-1]
    assert again == first
    assert first == [SpanSolver(rows).express(t) for t in targets]


def test_column_dependencies_annihilate_columns():
    cols = [{0: F(1)}, {0: F(2)}, {}, {1: F(1)}]
    deps = column_dependencies(cols)
    assert len(deps) == len(cols) - span_rank(cols)
    for dep in deps:
        total = {}
        for j, c in dep.items():
            total = vec_add(total, vec_scale(c, cols[j]))
        assert total == {}


@given(mats)
def test_column_dependencies_count_matches_rank_nullity(cols):
    deps = column_dependencies(cols)
    assert len(deps) + span_rank(cols) == len(cols)


@given(mats)
def test_transpose_preserves_rank(rows):
    cols: dict = {}
    for i, row in enumerate(rows):
        for j, c in row.items():
            cols.setdefault(j, {})[i] = c
    assert span_rank(rows) == span_rank(cols.values())


# -- based spaces and maps --------------------------------------------------

def test_based_space_roundtrip():
    sp = VectorSpaceWithBasis(["a", "b", "c"])
    assert sp.dim == 3
    assert [sp.labels[sp.index[lab]] for lab in "abc"] == ["a", "b", "c"]
    assert sp.basis_vector("b") == {1: F(1)}
    with pytest.raises(ValueError):
        VectorSpaceWithBasis(["a", "a"])


def test_linear_map_rank_kernel_image():
    dom = VectorSpaceWithBasis(["a", "b", "c"])
    cod = VectorSpaceWithBasis(["x", "y"])
    f = LinearMap(dom, cod, [{0: 1}, {0: 1, 1: 1}, {}])
    assert f.rank() == 2
    ker = f.kernel()
    assert len(ker) == 1
    assert dom.dim == f.rank() + len(ker)
    for v in ker:
        assert f.apply(v) == {}
    assert span_rank(f.images + [{0: F(1)}]) == f.rank()
    assert f.apply({0: 1, 1: -1}) == {1: -1}


def test_compose_and_is_zero():
    sp = VectorSpaceWithBasis([0, 1])
    swap = LinearMap(sp, sp, [{1: F(1)}, {0: F(1)}])
    assert swap.compose(swap).apply({0: F(1)}) == {0: F(1)}
    zero = LinearMap(sp, sp, [{}, {}])
    assert zero.is_zero()
    assert zero.compose(swap).is_zero()


@given(st.lists(vecs, min_size=3, max_size=3))
def test_rank_nullity_for_maps(images):
    dom = VectorSpaceWithBasis(["a", "b", "c"])
    cod = VectorSpaceWithBasis(list(range(5)))
    f = LinearMap(dom, cod, images)
    assert f.rank() + len(f.kernel()) == dom.dim


# -- against a dense Gaussian-elimination reference ------------------------

def dense_rank(rows):
    """Rank of a dense Fraction matrix by plain Gaussian elimination."""
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def low_rank_matrices(draw):
    """Products B * C of r x k and k x c matrices, so rank <= k."""
    r, k, c = (draw(st.integers(1, 6)), draw(st.integers(0, 6)),
               draw(st.integers(1, 6)))
    b = [[draw(fracs) for _ in range(k)] for _ in range(r)]
    cm = [[draw(fracs) for _ in range(c)] for _ in range(k)]
    return [[sum((b[i][t] * cm[t][j] for t in range(k)), F(0))
             for j in range(c)] for i in range(r)]


@given(low_rank_matrices())
def test_echelon_and_kernel_match_dense_elimination(a):
    nrows, ncols = len(a), len(a[0])
    rank = dense_rank(a)
    ech = Echelon()
    for row in a:
        ech.add({j: x for j, x in enumerate(row)})
    assert ech.rank == rank
    f = LinearMap(VectorSpaceWithBasis(range(ncols)),
                  VectorSpaceWithBasis(range(nrows)),
                  [{i: a[i][j] for i in range(nrows)} for j in range(ncols)])
    assert f.rank() == rank
    ker = f.kernel()
    assert len(ker) == ncols - rank
    for v in ker:
        assert all(sum((a[i][j] * v.get(j, 0) for j in range(ncols)), F(0)) == 0
                   for i in range(nrows))
    assert dense_rank([[v.get(j, F(0)) for j in range(ncols)]
                       for v in ker]) == len(ker)


# -- quotient spaces --------------------------------------------------------

def test_quotient_identifies_glued_labels():
    amb = VectorSpaceWithBasis(["a", "b", "c"])
    q = QuotientSpace(amb, [vec_add(amb.basis_vector("a"),
                                  vec_scale(-1, amb.basis_vector("b")))])
    assert q.dim == 2
    assert q.class_of(amb.basis_vector("a")) == q.class_of(amb.basis_vector("b"))
    assert q.is_zero_class({0: 1, 1: -1})
    assert not q.is_zero_class(amb.basis_vector("c"))
    assert q.space().dim == 2


def test_quotient_project_is_canonical():
    amb = VectorSpaceWithBasis(["a", "b"])
    q = QuotientSpace(amb, [{0: 1, 1: 1}])
    ra = q.project(amb.basis_vector("a"))
    rb = q.project(vec_scale(-1, amb.basis_vector("b")))
    assert ra == rb  # equal classes share the canonical representative


def test_induced_quotient_map_commutes_with_projection():
    amb_dom = VectorSpaceWithBasis(["a", "b", "c"])
    amb_cod = VectorSpaceWithBasis(["x", "y"])
    glue = [vec_add(amb_dom.basis_vector("a"),
                    vec_scale(-1, amb_dom.basis_vector("b")))]
    qdom = QuotientSpace(amb_dom, glue)
    qcod = QuotientSpace(amb_cod, [])
    amb_map = LinearMap(amb_dom, amb_cod, [{0: 1}, {0: 1}, {1: 1}])
    f = induced_quotient_map(qdom, qcod, amb_map.apply)
    assert f.rank() == 2
    for lab in amb_dom.labels:
        v = amb_dom.basis_vector(lab)
        assert f.apply(qdom.class_of(v)) == qcod.class_of(amb_map.apply(v))


def test_induced_quotient_map_refuses_a_map_that_does_not_descend():
    amb = VectorSpaceWithBasis(["a", "b", "c"])
    qdom = QuotientSpace(amb, [{0: 1, 1: -1}])  # a = b
    swap_bc = LinearMap(amb, amb, [{0: 1}, {2: 1}, {1: 1}])  # a - b -> a - c
    with pytest.raises(EngineError, match="does not descend"):
        induced_quotient_map(qdom, QuotientSpace(amb, []), swap_bc.apply)
    glued = QuotientSpace(amb, [{0: 1, 2: -1}])  # a = c
    assert induced_quotient_map(qdom, glued, swap_bc.apply).rank() == 2


@given(mats)
def test_relations_span_the_subspace(vectors):
    q = QuotientSpace(VectorSpaceWithBasis(range(5)), vectors)
    rels = q.relations()
    assert len(rels) == span_rank(rels) == span_rank(vectors) <= len(vectors)
    ech = Echelon(rels)
    assert all(not ech.reduce(v) for v in vectors)


@given(mats, vecs)
def test_class_lift_roundtrip(vectors, v):
    q = QuotientSpace(VectorSpaceWithBasis(range(5)), vectors)
    c = q.class_of(v)
    assert q.lift(c) == q.project(v)  # the lift is the canonical representative
    assert q.class_of(q.lift(c)) == c


# -- value types: ints stay ints, nothing becomes a float ------------------

ints = st.integers(-4, 4)
# all-int, all-Fraction and mixed matrices; zero entries included
typed_mats = st.sampled_from([ints, fracs, st.one_of(ints, fracs)]).flatmap(
    lambda entry: st.lists(st.dictionaries(st.integers(0, 4), entry,
                                           max_size=5), max_size=5))


def _fraction_clean(v):
    out = {}
    for k, c in v.items():
        c = F(c)
        if c:
            out[k] = c
    return out


def fraction_only():
    """The kernel with every value coerced to Fraction and every division a
    Fraction division: the all-Fraction reference for the int fast path."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(linalg, "vec_clean", _fraction_clean))
    stack.enter_context(mock.patch.object(linalg, "_exact", F))
    stack.enter_context(mock.patch.object(linalg, "_exact_div",
                                          lambda c, lead: F(c) / lead))
    return stack


def kernel_results(rows, probe, coeffs, member):
    ech = Echelon()
    for r in rows:
        ech.add(r)
    f = LinearMap(VectorSpaceWithBasis(range(len(rows))),
                  VectorSpaceWithBasis(range(5)), rows)
    q = QuotientSpace(VectorSpaceWithBasis(range(5)), rows)
    solver = SpanSolver(rows)
    return {"rows": ech.rows(), "reduce": ech.reduce(probe),
            "rank": f.rank(), "kernel": f.kernel(), "image": f.apply(dict(enumerate(coeffs[:len(rows)]))),
            "coords": q.coord_labels, "class": q.class_of(probe),
            "member": solver.express(member), "probe": solver.express(probe),
            "one_shot": express_in_span(rows, member)}


def assert_exact(value):
    if isinstance(value, dict):
        for v in value.values():
            assert_exact(v)
    elif isinstance(value, list):
        for v in value:
            assert_exact(v)
    elif value is not None:
        assert type(value) in (int, Fraction), repr(value)


@given(typed_mats, typed_mats, st.lists(ints, min_size=5, max_size=5))
def test_int_fast_path_matches_fraction_arithmetic(rows, probes, coeffs):
    probe = probes[0] if probes else {}
    member = combine(coeffs, rows)
    got = kernel_results(rows, probe, coeffs, member)
    with fraction_only():
        want = kernel_results(rows, probe, coeffs, member)
    assert got == want
    assert_exact(got)


def test_non_unit_pivot_stores_a_fraction():
    ech = Echelon()
    ech.add({0: 2, 1: 1})
    row = ech.rows()[0]
    assert row == {0: 1, 1: F(1, 2)}
    assert type(row[1]) is Fraction
    assert ech.reduce({1: 3}) == {1: 3}
    assert ech.reduce({0: 1}) == {1: F(-1, 2)}
