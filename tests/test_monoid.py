"""Affine monoid predicates and the toric ideal of the Segre-cone monoid.

Independent oracle used throughout: solving the generator equations
a+c = u1, b+d = u2, a+d = u3, b+c = u4 over nonnegative integers shows the
Segre-cone monoid is exactly {u in N^4 : u1 + u2 = u3 + u4} (take
a = min(u1, u3); the balance equation makes the rest nonnegative).
"""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from segrecone.monoid import (
    SEGRE_CHARS,
    AffineMonoid,
    _triangular_lattice_basis,
    c_divisibility_witness,
    cone_relation,
    gubeladze_monoid,
    is_normal_up_to,
    lattice_contains,
    toric_ideal,
)
from segrecone.polyring import Polynomial, reduce_full

M = gubeladze_monoid()

coords = st.integers(0, 4)
points = st.tuples(coords, coords, coords, coords)
zpoints = st.tuples(*(st.integers(-3, 3) for _ in range(4)))


def test_generators_are_the_four_characters():
    assert M.generators == SEGRE_CHARS
    assert M.rank == 4


def test_membership_hand_cases():
    for g in SEGRE_CHARS:
        assert M.contains(g)
    assert M.contains((0, 0, 0, 0))
    assert M.contains((1, 1, 1, 1))
    assert M.contains((1, 1, 2, 0))
    assert not M.contains((1, 0, 0, 0))
    assert not M.contains((0, 0, 1, 1))
    assert not M.contains((1, 0, -1, 0))


@given(points)
def test_membership_matches_balance_equation(u):
    assert M.contains(u) == (u[0] + u[1] == u[2] + u[3])


def test_elements_up_to_counts_squares_per_degree():
    # degree-j elements have coordinate sum 2j and number (j+1)^2
    assert len(M.elements_up_to(2)) == 1 + 4 + 9
    assert len(M.elements_up_to(3)) == 1 + 4 + 9 + 16
    by_sum = {}
    for u in M.elements_up_to(3):
        by_sum.setdefault(sum(u), set()).add(u)
    assert {s: len(v) for s, v in by_sum.items()} == {0: 1, 2: 4, 4: 9, 6: 16}


def test_group_completion_rank_is_three():
    assert len(_triangular_lattice_basis(M.generators)) == 3


@given(zpoints)
def test_group_completion_is_the_balance_lattice(u):
    tri = _triangular_lattice_basis(M.generators)
    assert lattice_contains(tri, u) == (u[0] + u[1] == u[2] + u[3])


def test_no_small_c_divisibility():
    for c in range(2, 13):
        w = c_divisibility_witness(M, c, degree_bound=6)
        assert w is not None
        assert M.contains(w)
        divisible = (all(x % c == 0 for x in w)
                     and M.contains(tuple(x // c for x in w)))
        assert not divisible
    with pytest.raises(ValueError):
        c_divisibility_witness(M, 1, degree_bound=2)


def test_normality_certificate():
    assert is_normal_up_to(M, 6)


def test_non_normal_monoid_is_detected():
    # <2, 3> inside N: 1 lies in the group completion and 2*1 is a member,
    # but 1 itself is not
    numeric = AffineMonoid([(2,), (3,)])
    assert not is_normal_up_to(numeric, 3)


def test_toric_ideal_is_the_single_binomial():
    gens = toric_ideal(M)
    assert len(gens) == 1
    rel = cone_relation()
    assert gens[0] in (rel, -rel)
    # mutual reduction in both directions
    assert reduce_full(rel, gens).is_zero()
    assert reduce_full(gens[0], [rel]).is_zero()


def test_toric_ideal_of_free_monoid_is_empty():
    free = AffineMonoid([(1, 0), (0, 1)])
    assert toric_ideal(free) == []


def test_toric_ideal_numeric_semigroup():
    # x1 -> z^3, x2 -> z^2 has kernel (x1^2 - x2^3)
    semi = AffineMonoid([(3,), (2,)])
    gens = toric_ideal(semi)
    assert len(gens) == 1
    target = Polynomial(2, {(2, 0): 1, (0, 3): -1})
    assert reduce_full(target, gens).is_zero()
    assert len(_triangular_lattice_basis(semi.generators)) == 1


def test_cone_relation_shape():
    rel = cone_relation()
    assert rel.nvars == 4
    assert rel.terms == {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}
    assert rel.is_homogeneous()
