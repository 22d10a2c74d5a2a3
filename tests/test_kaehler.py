"""Kaehler differentials of truncated algebras: dimensions, exterior calculus.

Hand oracles used below (all derivable with pencil and paper):

* dim Q_n = sum of (j+1)^2 over j < n (standard monomials per degree).
* Level 2: the degree-1 slice of Omega^m is the cokernel of the Koszul map
  Sym^2 V (x) Wedge^(m-1) V -> V (x) Wedge^m V, so
  dim Omega^m_{Q_2} = C(4,m) + C(4,m+1), giving the row [5,10,10,5,1].
* Level 3, m = 1: slices 4 + 15 + 16 = 35.  Degree 1 removes the single
  relation d(x1x2 - x3x4); degree 2 removes 20 independent vectors (the 16
  differentials of standard cubics plus the four x_i * d(x1x2 - x3x4),
  independent because no standard-monomial combination lies in the ideal).
* Top forms: wedging d(x1x2 - x3x4) with the four 3-wedges yields the
  relations x_i * dx1 dx2 dx3 dx4 = 0, so only the constant-coefficient top
  form survives: dim Omega^4 = 1 for n >= 2 (0 at n = 1, where even the
  constant dies against d of the degree-1 truncation monomials).
* k[x]/(x^3): Omega^1 has basis dx, x dx and relation x^2 dx = 0.
"""
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segrecone.errors import EngineError
from segrecone.kaehler import (
    OMEGA_TOP,
    DifferentialModule,
    d_terms,
    hodge_quotient,
    hodge_transition,
    omega4_cone_check,
    omega_transition,
    pro_exterior_power_check,
    q_tensor_module,
    qn_algebra,
    qn_module,
)
from segrecone.linalg import induced_quotient_map, vec_add
from segrecone.monoid import cone_relation
from segrecone.polyring import truncated_quotient

from laws import verify_d_squared, verify_leibniz

F = Fraction


def test_truncated_cone_algebra_dims():
    assert [qn_algebra(n).dim for n in (1, 2, 3, 4)] == [1, 5, 14, 30]


def test_form_dimensions_level_two():
    dm = qn_module(2)
    assert [dm.dim(m) for m in range(5)] == [5, 10, 10, 5, 1]


def test_form_dimensions_level_three():
    dm = qn_module(3)
    row = [dm.dim(m) for m in range(5)]
    assert row[0] == 14
    assert row[1] == 35
    assert row[4] == 1
    assert row == [14, 35, 35, 14, 1]  # m = 2, 3 pinned as regression values


def test_form_dimension_symmetry_and_unit_euler_sum():
    for n in (2, 3):
        dm = qn_module(n)
        row = [dm.dim(m) for m in range(5)]
        assert row[:4] == row[:4][::-1]  # m <-> 3-m symmetry below the top
        assert row[4] == 1
        assert sum((-1) ** m * row[m] for m in range(5)) == 1


def test_fifth_powers_vanish():
    for n in (2, 3):
        assert qn_module(n).dim(5) == 0
        assert q_tensor_module(n).dim(5) == 0


def test_top_form_dimensions_and_annihilation():
    assert qn_module(1).dim(4) == 0
    assert q_tensor_module(1).dim(4) == 1
    for n in (2, 3):
        for dm in (qn_module(n), q_tensor_module(n)):
            assert dm.dim(4) == 1
            w = dm.class_vec(4, *OMEGA_TOP)
            assert w
            for i in range(4):
                e = tuple(1 if j == i else 0 for j in range(4))
                assert dm.class_action(4, e, w) == {}


def test_exterior_derivative_laws():
    for n in (2, 3):
        dm = qn_module(n)
        assert verify_d_squared(dm)
        assert verify_leibniz(dm)
        assert verify_d_squared(q_tensor_module(n))


def test_ambient_d_hand_example():
    dm = qn_module(3)
    v = dm.ambient(0).basis_vector(((1, 0, 1, 0), ()))
    img = {dm.ambient(1).labels[i]: c
           for i, c in dm.ambient_d(0, v).items()}
    assert img == {((1, 0, 0, 0), (2,)): F(1), ((0, 0, 1, 0), (0,)): F(1)}


def product_rule(exps, wedge):
    """d(x^a dx_T) = sum_i a_i x^(a - e_i) dx_i ^ dx_T, with dx_i ^ dx_T
    sorted by the sign of the permutation that sorts (i, *T)."""
    out = {}
    for i, e in enumerate(exps):
        if e == 0 or i in wedge:
            continue
        seq = (i,) + wedge
        inversions = sum(1 for p, q in combinations(seq, 2) if p > q)
        lowered = tuple(x - (j == i) for j, x in enumerate(exps))
        out[(lowered, tuple(sorted(seq)))] = (-1) ** inversions * e
    return out


laurent_exps = st.integers(3, 4).flatmap(
    lambda r: st.tuples(*[st.integers(-3, 3)] * r))


@given(laurent_exps)
def test_d_terms_is_the_product_rule(exps):
    for m in range(len(exps) + 1):
        for wedge in combinations(range(len(exps)), m):
            terms = d_terms(exps, wedge)
            assert len({t[:2] for t in terms}) == len(terms)
            assert all(cf for _, _, cf in terms)
            assert {(e, w): cf for e, w, cf in terms} == \
                product_rule(exps, wedge)


def test_omega4_check_fails_when_the_top_class_is_zero():
    with mock.patch.object(DifferentialModule, "class_vec",
                           lambda self, m, mon, wedge: {}):
        assert omega4_cone_check(2).ok is False


def test_a_d_that_does_not_descend_is_refused():
    """Doubling the x1 dx2 coefficient before d sends the level-2 relation
    d(x1x2 - x3x4) to dx1 dx2, which is not a relation of Omega^2."""
    real_d = DifferentialModule.ambient_d
    label = ((1, 0, 0, 0), (1,))

    def skewed_d(self, m, vec):
        amb = self.ambient(m)
        return real_d(self, m, {i: 2 * c if amb.labels[i] == label else c
                                for i, c in vec.items()})

    DifferentialModule(qn_algebra(2), [cone_relation()]).d(1)  # descends
    with mock.patch.object(DifferentialModule, "ambient_d", skewed_d):
        dm = DifferentialModule(qn_algebra(2), [cone_relation()])
        with pytest.raises(EngineError, match="does not descend"):
            dm.d(1)  # d is built, and checked, on first use


def test_every_d_up_to_level_eight_is_built_and_descends():
    """The levels any check or workload reads (forms-tower goes to 8).
    Building a d checks its descent, so none of these is left unchecked
    because no check happened to request it."""
    for n in range(1, 9):
        for dm in (qn_module(n), q_tensor_module(n)):
            for m in range(dm.up_to):
                dm.d(m)  # raises EngineError unless it descends
            assert verify_d_squared(dm)


def _request(dm, what, m):
    if what == "d":
        return dm.d(m).images
    q = dm.quot(m) if what == "quot" else hodge_quotient(dm, m)
    return q.coord_labels, q.relations()


_REQUESTS = ([("d", m) for m in range(5)] + [("quot", m) for m in range(6)]
             + [("hodge", m) for m in range(6)])


@given(st.booleans(), st.permutations(_REQUESTS))
def test_a_module_is_the_same_whatever_order_it_is_read_in(tensor, order):
    alg = qn_algebra(4)
    gens = [cone_relation()] if tensor else list(alg.gb.elements)
    first, second = (DifferentialModule(alg, gens) for _ in range(2))
    shuffled = {r: _request(first, *r) for r in order}
    assert shuffled == {r: _request(second, *r) for r in _REQUESTS}
    assert hodge_quotient(first, 3) is hodge_quotient(first, 3)


@given(st.dictionaries(st.integers(0, 9), st.integers(-3, 3), max_size=4))
def test_class_action_is_linear(coeffs):
    dm = qn_module(2)
    v = {i: F(c) for i, c in coeffs.items() if c}
    mon = (1, 0, 0, 0)
    doubled = dm.class_action(1, mon, vec_add(v, v))
    assert doubled == vec_add(dm.class_action(1, mon, v),
                              dm.class_action(1, mon, v))


def test_transitions_are_surjective_truncations():
    t = omega_transition(1, 2)
    assert t.rank() == qn_module(2).dim(1) == 10
    t4 = omega_transition(4, 2)
    assert t4.rank() == 1
    # the top form is fixed
    w3 = qn_module(3).class_vec(4, *OMEGA_TOP)
    assert t4.apply(w3) == qn_module(2).class_vec(4, *OMEGA_TOP)


def test_hodge_quotient_dimensions():
    # Omega^1/d(Q_2): d hits the four constant-coefficient dx_i
    assert hodge_quotient(qn_module(2), 1).dim == 10 - 4
    # Omega^3/d(Omega^2): image is exactly the constant 3-wedges
    assert hodge_quotient(qn_module(2), 3).dim == 1
    assert hodge_quotient(qn_module(1), 3).dim == 0


def test_hodge_piece_projection():
    dm = qn_module(2)
    piece = hodge_quotient(dm, 3)
    assert piece.dim == 1
    projection = induced_quotient_map(dm.quot(3), piece, lambda v: v)
    assert projection.rank() == 1
    assert hodge_quotient(dm, 4).dim == 0


def test_hodge_piece_does_not_include_into_forms():
    """d-images are zero in the Hodge piece but not in Omega^3, so the
    identity does not descend from the piece to the forms."""
    dm = qn_module(2)
    with pytest.raises(EngineError, match="does not descend"):
        induced_quotient_map(hodge_quotient(dm, 3), dm.quot(3), lambda v: v)


def test_hodge_transition_surjective():
    t = hodge_transition(3, 2)
    assert t.rank() == hodge_quotient(qn_module(2), 3).dim == 1


def test_omega4_cone_check():
    v = omega4_cone_check(4)
    assert v.ok
    assert v.witness == {"class": "dx1^dx2^dx3^dx4", "level": 1}
    for n, rec in v.details["per_level"].items():
        assert rec["dim_tensor_omega4"] == 1
        assert rec["w_nonzero"] and rec["x_times_w_zero"]
        assert rec["dim_omega4"] == (1 if n >= 2 else 0)
        if n < 4:
            assert rec["transition_fixes_w"]


def test_pro_exterior_power_comparison():
    assert pro_exterior_power_check(1, 4, 2).ok
    v = pro_exterior_power_check(5, 4, 1)
    assert v.ok  # both towers vanish identically in degree 5
    assert v.details["power"] == 5


def test_one_variable_truncation_module():
    line = truncated_quotient([], 3, nvars=1)
    dm = DifferentialModule(line, line.gb.elements)
    assert dm.up_to == 2
    assert dm.alg.dim == 3
    assert dm.dim(1) == 2
    assert dm.dim(2) == 0
    assert verify_d_squared(dm) and verify_leibniz(dm)
    # x^2 dx = 0 but x dx is not
    assert dm.class_vec(1, (2,), (0,)) == {}
    assert dm.class_vec(1, (1,), (0,)) != {}
    # d is injective off the constants: HC^1_1 = 0
    assert hodge_quotient(dm, 1).dim == 0
