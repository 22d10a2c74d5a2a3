"""Weight-graded towers: levelwise dims and witnesses.

Hand corroboration pinned here:

* ideal side, weight one: dim of the augmentation-power quotient at level n
  is 4, 13, 29 (sums of (j+1)^2 over 1 <= j < n).
* one-form sections of the thickenings: 0, 4, 19, 51 (layerwise Kunneth
  counts, see test_sheaf.py).
* weight three at level 2: every graded layer of the reduced 2-forms is a
  line bundle without sections, so the target vanishes and the kernel is
  the whole degree-2 Hodge piece.
* weight four: the top Hodge piece is 1-dimensional from level 2 on and the
  class of x1 dx2 dx3 dx4 maps to the (nonzero) top form at every level.
"""
import pytest

from segrecone import ktheory
from segrecone.errors import CrossCheckError, EngineError
from segrecone.kaehler import hodge_quotient, qn_module
from segrecone.ktheory import (
    HYPOTHESES,
    K4_WITNESS,
    compute_K3,
    compute_K4,
    k1_form_map,
    k3_component,
    verify_K1,
    verify_K5plus_inputs,
)


def test_hypotheses_are_recorded():
    assert HYPOTHESES
    assert all(isinstance(h, str) and h for h in HYPOTHESES)


def test_k4_witness_is_the_expected_class():
    assert K4_WITNESS == ((1, 0, 0, 0), (1, 2, 3))


# -- weight one ---------------------------------------------------------------

def test_weight_one_certificate():
    v = verify_K1(4, 2)
    assert v.ok
    d = v.details
    assert d["source_dims"] == {1: 0, 2: 10, 3: 35, 4: 81}
    assert d["target_dims"] == {1: 0, 2: 4, 3: 19, 4: 51}
    for n, rec in d["ideal_side_levelwise"].items():
        expect = sum((j + 1) ** 2 for j in range(1, n))
        assert rec["dim_mbar_quotient"] == expect
        assert rec["dim_ideal_sections"] == expect
        assert rec["rank"] == expect
    assert d["form_side_pro_iso"]["kernel"]["window"] == 2
    assert d["hypotheses"] == list(HYPOTHESES)
    with pytest.raises(EngineError):
        verify_K1(2, 1)


def test_k1_form_map_is_injective_at_level_two():
    f = k1_form_map(2)
    assert f.domain.dim == 10
    assert f.codomain.dim == 4
    assert f.rank() == 4  # surjective; kernel dies one level down


# -- weight four --------------------------------------------------------------

def test_weight_four_tower_and_witness():
    system, verdict = compute_K4(4)
    assert verdict.ok
    assert system.dims() == {1: 0, 2: 1, 3: 1, 4: 1}
    per = verdict.details["per_level"]
    for n in (2, 3, 4):
        assert per[n]["dim"] == 1
        assert per[n]["dim_top_form"] == 1
        assert per[n]["witness_d_image_nonzero"]
        assert per[n]["witness_d_image_is_top_form"]
    assert per[1]["dim"] == 0
    assert not per[1]["witness_d_image_nonzero"]
    for n in (1, 2, 3):
        assert per[n]["transition_surjective"]
        assert per[n]["witness_compatible"]
    assert verdict.details["nonzero_from_level"] == 2
    with pytest.raises(EngineError):
        compute_K4(1)


def test_weight_five_inputs():
    v = verify_K5plus_inputs(4)
    assert v.ok
    for n, rec in v.details["per_level"].items():
        assert rec["rank_d3"] == rec["dim_omega4"] == (1 if n >= 2 else 0)
        assert rec["dim_omega5"] == 0


# -- weight three -------------------------------------------------------------

def test_weight_three_kernel_dims():
    kernel = compute_K3(3)
    assert kernel.dims() == {1: 0, 2: 4, 3: 13}
    with pytest.raises(EngineError):
        compute_K3(1)


def test_weight_three_refuses_an_uncertified_filtration(monkeypatch):
    monkeypatch.setattr(ktheory, "h_filtered", lambda filt, i: (0, False))
    with pytest.raises(CrossCheckError, match="not certified"):
        compute_K3(3)


def test_weight_three_level_two_by_hand():
    # no layer of the reduced 2-forms at level 2 has sections, so the
    # component map has a zero target and full kernel
    f = k3_component(2)
    assert f.codomain.dim == 0
    assert f.rank() == 0
    assert len(f.kernel()) == hodge_quotient(qn_module(2), 2).dim == 4


def test_weight_three_kernel_matches_componentwise_kernels():
    kernel = compute_K3(3)
    for n in (1, 2, 3):
        assert kernel.levels[n].dim == len(k3_component(n).kernel())

