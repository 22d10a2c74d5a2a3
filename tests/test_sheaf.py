"""Closed-form cohomology on a product of two lines vs the Cech oracle.

Every numeric oracle below is the classical Kunneth count
h^i(O(a,b)) = sum h^p(O(a)) * h^{i-p}(O(b)) with
h^0(O(m)) = max(m+1, 0) and h^1(O(m)) = max(-m-1, 0), computable by hand.
The Cech kernel itself is also compared, character by character, with the
complex written out from its definition at the end of this file.
"""
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from segrecone import sheaf
from segrecone.errors import BoxInstabilityError, EngineError
from segrecone.linalg import span_rank
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


# -- the four-chart Cech complex, built once ----------------------------------

CHARTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def present_by_projection(face, p, q, a, b):
    """A character is a section on an intersection when each coordinate
    whose projection is a single chart satisfies that chart's condition."""
    conds = []
    for axis, x, top in ((0, p, a), (1, q, b)):
        proj = {u[axis] for u in face}
        if proj == {0}:
            conds.append(x >= 0)
        elif proj == {1}:
            conds.append(x <= top)
    return all(conds)


def complex_ranks(levels):
    """Ranks of the coboundaries of the complex on these faces, each column
    restricted to the faces present one level up, with the sign of sorted
    insertion."""
    index = [{T: j for j, T in enumerate(lev)} for lev in levels]
    ranks = []
    for k in range(3):
        cols = []
        for S in levels[k]:
            col = {}
            for extra in CHARTS:
                T = tuple(sorted(S + (extra,)))
                if extra not in S and T in index[k + 1]:
                    col[index[k + 1][T]] = (-1) ** T.index(extra)
            cols.append(col)
        ranks.append(span_rank(cols))
    return ranks


def cohomology_by_definition(p, q, a, b, memo):
    levels = tuple(tuple(S for S in combinations(CHARTS, k + 1)
                         if present_by_projection(S, p, q, a, b))
                   for k in range(4))
    if levels not in memo:  # the ranks depend only on the faces present
        memo[levels] = complex_ranks(levels)
    ranks = [0] + memo[levels] + [0]
    return [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(4)]


def test_char_cohomology_matches_the_complex_built_per_character():
    """At every character of every ``_cech_all`` box for a, b in -8..8,
    the kernel's h^0..h^3 equal those of the complex built from the
    definition: presence by chart projections, columns restricted to the
    present faces."""
    memo = {}
    characters = 0
    for a in range(-8, 9):
        for b in range(-8, 9):
            for p in range(min(a, -2 - a) - 1, max(a, -2 - a) + 2):
                for q in range(min(b, -2 - b) - 1, max(b, -2 - b) + 2):
                    assert sheaf._char_cohomology(p, q, a, b) == \
                        cohomology_by_definition(p, q, a, b, memo), (p, q, a, b)
                    characters += 1
    assert characters == 197 ** 2  # the widths |2a + 2| + 3 sum to 197
    assert len(memo) > 1


def test_cech_constants_form_a_complex_with_upward_closed_supports():
    faces = sheaf._SUBSETS
    assert [len(lev) for lev in faces] == [4, 6, 4, 1]
    for k in range(2):  # d d = 0 on the full complex
        for col in sheaf._COBOUNDARY[k]:
            image = {}
            for j, c in col.items():
                for i, cc in sheaf._COBOUNDARY[k + 1][j].items():
                    image[i] = image.get(i, 0) + c * cc
            assert not any(image.values())
    # (x, top) with x >= 0 and x <= top true or false as the mask bits say
    witness = {(True, True): (0, 0), (True, False): (1, 0),
               (False, True): (-1, 0), (False, False): (-1, -3)}
    for have in range(16):
        (p, a), (q, b) = (witness[bool(have & lo), bool(have & hi)]
                          for lo, hi in ((1, 2), (4, 8)))
        mask = (p >= 0) | (p <= a) << 1 | (q >= 0) << 2 | (q <= b) << 3
        assert mask == have
        present = [{S for S, need in zip(faces[k], sheaf._NEEDS[k])
                    if need & have == need} for k in range(4)]
        assert present == [{S for S in faces[k]
                            if present_by_projection(S, p, q, a, b)}
                           for k in range(4)]
        for k in range(3):
            for S in present[k]:
                cofaces = {T for T in faces[k + 1] if set(S) < set(T)}
                assert cofaces <= present[k + 1]
                assert {faces[k + 1][j] for j in
                        sheaf._COBOUNDARY[k][faces[k].index(S)]} == cofaces


def test_a_section_on_the_box_boundary_is_refused(monkeypatch):
    real = sheaf._char_cohomology

    def stray_section(p, q, a, b):
        return [1, 0, 0, 0] if (p, q) == (-3, 0) else real(p, q, a, b)

    monkeypatch.setattr(sheaf, "_char_cohomology", stray_section)
    with pytest.raises(BoxInstabilityError, match=r"O\(0,0\).*\(-3,0\)"):
        sheaf._cech_all.__wrapped__(0, 0)
