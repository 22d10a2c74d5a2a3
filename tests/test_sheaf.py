"""Closed-form cohomology on a product of two lines vs the Cech oracle.

Every numeric oracle below is the classical Kunneth count
h^i(O(a,b)) = sum h^p(O(a)) * h^{i-p}(O(b)) with
h^0(O(m)) = max(m+1, 0) and h^1(O(m)) = max(-m-1, 0), computable by hand.
"""
from hypothesis import given
from hypothesis import strategies as st

from segrecone.errors import EngineError
from segrecone.sheaf import (
    GradedFiltration,
    LineBundle,
    audit_cohomology_formulas,
    audit_summary,
    bundle_sum,
    coh_cech_oracle,
    coh_closed_form,
    euler_char_check,
    euler_characteristic,
    euler_identification_check,
    expand_omega_twist,
    filtration_tilde_omega,
    h_closed,
    h_filtered,
    h_p1,
    serre_dual_check,
)
import pytest

twists = st.integers(-5, 3)


def test_line_cohomology():
    assert [h_p1(m, 0) for m in (-2, -1, 0, 1, 3)] == [0, 0, 1, 2, 4]
    assert [h_p1(m, 1) for m in (-4, -2, -1, 0)] == [3, 1, 0, 0]
    assert h_p1(5, 2) == 0


def test_kunneth_hand_values():
    assert h_closed(LineBundle(1, 1), 0) == 4
    assert h_closed(LineBundle(-2, -2), 2) == 1
    assert h_closed(LineBundle(-2, 0), 1) == 1
    assert h_closed(LineBundle(-3, 1), 1) == 4
    assert h_closed(LineBundle(-1, 5), 0) == 0


@given(twists, twists)
def test_cech_oracle_matches_closed_form(a, b):
    L = LineBundle(a, b)
    for i in range(3):
        assert coh_cech_oracle(L, i) == h_closed(L, i)
    assert coh_cech_oracle(L, 3) == 0


@given(twists, twists)
def test_euler_and_serre_properties(a, b):
    L = LineBundle(a, b)
    assert euler_characteristic(L) == (a + 1) * (b + 1)
    assert euler_char_check(L)
    assert serre_dual_check(L)


def test_expand_omega_twist():
    assert expand_omega_twist(0, 3) == (LineBundle(3, 3),)
    assert expand_omega_twist(1, 0) == bundle_sum((-2, 0), (0, -2))
    assert expand_omega_twist(2, 2) == (LineBundle(0, 0),)
    assert expand_omega_twist(3, 5) == ()
    assert expand_omega_twist(-1, 5) == ()


def test_coh_closed_form_values():
    assert coh_closed_form(0, 2, 0) == 9
    assert coh_closed_form(1, 1, 0) == 0  # neither summand has sections
    assert coh_closed_form(1, 2, 0) == 6
    assert coh_closed_form(2, 3, 0) == 4


def test_audit_flags_exactly_the_misindexed_item():
    v = audit_summary(range(-5, 6))
    assert v.ok  # the implemented formulas all match the oracle
    assert v.details["items_flagged"] == [4]
    findings = {f["n"]: f for f in v.details["findings"]}
    # literal (3-n)^2 vs true (-1-n)^2, for n <= -2 at i = 2
    assert set(findings) == {-2, -3, -4, -5}
    for n, f in findings.items():
        assert f["i"] == 2
        assert f["literal"] == (3 - n) ** 2
        assert f["oracle"] == (-1 - n) ** 2


def test_audit_records_shape():
    records = audit_cohomology_formulas(range(-5, 6))
    # per n: one row for items 2-7 and 9, two for item 8, three for item 1
    assert len(records) == 11 * 12
    assert all(r["implemented_agrees"] for r in records)
    bad = [r for r in records if not r["literal_agrees"]]
    assert {r["item"] for r in bad} == {4}


def test_filtration_layers_hand_counts():
    filt = filtration_tilde_omega(1, 3)
    assert set(filt.pieces) == {1, 2}
    assert filt.pieces[1] == bundle_sum((-1, 1), (1, -1), (1, 1))
    assert filt.pieces[2] == bundle_sum((0, 2), (2, 0), (2, 2))
    # layer sections: (0 + 0 + 4) + (3 + 3 + 9) = 19
    assert h_filtered(filt, 0) == (19, True)
    assert h_filtered(filt, 1) == (0, True)
    assert h_filtered(filt, 2) == (0, True)


def test_filtration_section_totals():
    # reduced structure layers (j, j): sums of squares
    assert h_filtered(filtration_tilde_omega(0, 3), 0) == (13, True)
    assert h_filtered(filtration_tilde_omega(0, 4), 0) == (29, True)
    # one-form layers at level 4: 4 + 15 + 32
    assert h_filtered(filtration_tilde_omega(1, 4), 0) == (51, True)


def test_filtration_certification_is_honest():
    bad = GradedFiltration({1: (LineBundle(-2, 0),)})
    assert h_filtered(bad, 1) == (1, False)  # nonzero total is never certified
    total, certified = h_filtered(bad, 0)
    assert total == 0 and not certified  # blocked by h^1 of the layer


def test_filtration_rejects_bad_level():
    with pytest.raises(EngineError):
        filtration_tilde_omega(1, 0)


def test_euler_identification():
    v = euler_identification_check()
    assert v.ok
    assert v.details["character_matrix_rank"] == 4
    assert v.details["h1_structure_sheaf"] == 0
    assert v.details["h0_twist_1"] == 4
    assert v.details["conclusion"] == {
        "h0_restricted_cotangent_twist": 0,
        "h1_restricted_cotangent_twist": 0,
    }
