"""Pro-system towers and finite-window certificates, on hand-built examples."""
from fractions import Fraction

import pytest

from segrecone.errors import EngineError
from segrecone.linalg import LinearMap, VectorSpaceWithBasis
from segrecone.prosys import (
    ProVectorSystem,
    StrictProMap,
    certify_pro_iso,
    certify_pro_zero,
    pro_cokernel,
    pro_kernel,
)

F = Fraction


def space(*labels):
    return VectorSpaceWithBasis(list(labels))


def constant_system(nmax, dim, images_fn):
    """All levels a copy of k^dim; transition images given by images_fn."""
    sp = space(*range(dim))
    levels = {n: sp for n in range(1, nmax + 1)}
    transitions = {n: LinearMap(sp, sp, images_fn()) for n in range(1, nmax)}
    return ProVectorSystem(levels, transitions)


def identity_images(dim):
    return lambda: [{i: F(1)} for i in range(dim)]


def zero_images(dim):
    return lambda: [{} for _ in range(dim)]


def shift_images(dim):
    # e_i -> e_{i-1}, e_0 -> 0: nilpotent of order dim
    return lambda: [{} if i == 0 else {i - 1: F(1)} for i in range(dim)]


# -- system plumbing ----------------------------------------------------------

def test_system_validation():
    sp = space("a")
    with pytest.raises(EngineError):
        ProVectorSystem({2: sp, 3: sp}, {2: LinearMap(sp, sp, [{}])})
    with pytest.raises(EngineError):
        ProVectorSystem({1: sp, 2: sp}, {})
    wrong = LinearMap(space("x"), space("x"), [{}])
    with pytest.raises(EngineError):
        ProVectorSystem({1: sp, 2: sp}, {1: wrong})


def test_dims_and_composites():
    s = constant_system(4, 3, shift_images(3))
    assert s.dims() == {1: 3, 2: 3, 3: 3, 4: 3}
    assert s.composite(2, 1).apply({2: F(1)}) == {1: F(1)}
    # three shifts kill everything
    assert s.composite(4, 1).is_zero()
    assert not s.composite(3, 1).is_zero()
    # the empty composite is the identity
    assert s.composite(2, 2).apply({0: F(1)}) == {0: F(1)}
    with pytest.raises(EngineError):
        s.composite(1, 2)


# -- pro-zero certificates ----------------------------------------------------

def test_zero_transitions_certify_at_window_one():
    s = constant_system(3, 2, zero_images(2))
    v = certify_pro_zero(s, 1)
    assert v.ok
    assert v.details["window"] == 1
    assert v.details["composites_checked"] == [1, 2]


def test_identity_system_fails_with_witness():
    s = constant_system(3, 1, identity_images(1))
    v = certify_pro_zero(s, 2)
    assert not v.ok
    assert v.details["failed_at"] == 1
    assert v.witness["level"] == 1 and v.witness["from_level"] == 3
    assert v.witness["basis_label"] == repr(0)


def test_nilpotent_shift_needs_the_full_window():
    s = constant_system(4, 3, shift_images(3))
    assert not certify_pro_zero(s, 1).ok
    assert not certify_pro_zero(s, 2).ok
    assert certify_pro_zero(s, 3).ok


def test_pro_zero_monotone_in_window():
    systems = [
        constant_system(5, 2, zero_images(2)),
        constant_system(5, 1, identity_images(1)),
        constant_system(5, 3, shift_images(3)),
        constant_system(5, 4, shift_images(4)),
    ]
    for s in systems:
        results = [certify_pro_zero(s, w).ok for w in range(0, s.nmax)]
        # once a window certifies, every larger one must too
        for lo, hi in zip(results, results[1:]):
            assert (not lo) or hi


def test_window_bounds_are_validated():
    s = constant_system(2, 1, zero_images(1))
    with pytest.raises(EngineError):
        certify_pro_zero(s, 2)
    with pytest.raises(EngineError):
        certify_pro_zero(s, -1)


def test_window_zero_means_levelwise_zero():
    assert certify_pro_zero(constant_system(2, 0, lambda: []), 0).ok
    assert not certify_pro_zero(constant_system(2, 1, zero_images(1)), 0).ok


# -- strict maps, kernels, cokernels -----------------------------------------

def test_strict_map_requires_commuting_squares():
    src = constant_system(2, 1, identity_images(1))
    dst = constant_system(2, 1, zero_images(1))
    comp = {n: LinearMap(src.levels[n], dst.levels[n], [{0: F(1)}])
            for n in (1, 2)}
    with pytest.raises(EngineError):
        StrictProMap(src, dst, comp)


def test_kernel_and_cokernel_of_a_levelwise_projection():
    # source k^2 with identity transitions, target k with identity transitions,
    # map = projection to the first coordinate
    src = constant_system(3, 2, identity_images(2))
    dst = constant_system(3, 1, identity_images(1))
    comp = {n: LinearMap(src.levels[n], dst.levels[n], [{0: F(1)}, {}])
            for n in (1, 2, 3)}
    f = StrictProMap(src, dst, comp)
    ker = pro_kernel(f)
    assert ker.dims() == {1: 1, 2: 1, 3: 1}
    # kernel transitions are induced identities, hence not pro-zero
    assert not certify_pro_zero(ker, 2).ok
    coker = pro_cokernel(f)
    assert coker.dims() == {1: 0, 2: 0, 3: 0}
    assert certify_pro_zero(coker, 1).ok


def test_pro_iso_certificates():
    src = constant_system(3, 2, identity_images(2))
    ident = {n: LinearMap(src.levels[n], src.levels[n],
                          identity_images(2)()) for n in (1, 2, 3)}
    assert certify_pro_iso(StrictProMap(src, src, ident), 1).ok

    # zero map into a surviving target: cokernel is not pro-zero
    dst = constant_system(3, 1, identity_images(1))
    zero = {n: LinearMap(src.levels[n], dst.levels[n], [{}, {}])
            for n in (1, 2, 3)}
    v = certify_pro_iso(StrictProMap(src, dst, zero), 1)
    assert not v.ok
    assert v.witness is not None
    assert set(v.details) == {"window", "kernel", "cokernel"}


def test_pro_iso_of_eventually_zero_towers():
    # kernel dies after one transition: pro-iso holds at window 1 though no
    # level map is injective
    sp2, sp1 = space("a", "b"), space("x")
    src = ProVectorSystem(
        {1: sp2, 2: sp2, 3: sp2},
        {1: LinearMap(sp2, sp2, [{0: F(1)}, {}]),
         2: LinearMap(sp2, sp2, [{0: F(1)}, {}])})
    dst = ProVectorSystem(
        {1: sp1, 2: sp1, 3: sp1},
        {1: LinearMap(sp1, sp1, [{0: F(1)}]),
         2: LinearMap(sp1, sp1, [{0: F(1)}])})
    comp = {n: LinearMap(sp2, sp1, [{0: F(1)}, {}]) for n in (1, 2, 3)}
    f = StrictProMap(src, dst, comp)
    assert not certify_pro_iso(f, 0).ok  # levelwise kernels are 1-dimensional
    assert certify_pro_iso(f, 1).ok
