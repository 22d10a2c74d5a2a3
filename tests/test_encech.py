"""Chart atlas on the exceptional thickenings and exact section counting.

Numeric oracles: section dimensions agree with the hand Kunneth counts of
the graded layers (sums of squares for the structure and ideal sheaves;
4 + 15 = 19 for reduced one-forms at level 3), see test_sheaf.py.
"""
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segrecone.encech import (
    CHART_GENS,
    _s_contains_raw,
    character,
    chart_char,
    chart_contains,
    chart_coords,
    chart_generator_consistency,
    global_sections,
    in_lattice,
    lcoords,
    overlap_data,
    pullback_section,
    restriction_map,
    sections_system,
    set_box_pad,
    verify_H0_surjection,
    verify_alg_surjection,
    xdeg,
)
from segrecone.errors import BoxInstabilityError, EngineError
from segrecone.kaehler import d_terms
from segrecone.linalg import VectorSpaceWithBasis
from segrecone.monoid import SEGRE_CHARS

import segrecone.encech as encech

small = st.integers(-3, 3)


# -- the character lattice ----------------------------------------------------

@given(small, small, small)
def test_lattice_coordinate_roundtrip(a, b, c):
    u = (a, b, a + c, b - c)
    assert in_lattice(u)
    assert lcoords(u) == (a, b, c)


def test_generators_have_degree_one():
    for g in SEGRE_CHARS:
        assert in_lattice(g)
        assert xdeg(g) == 1
    assert not in_lattice((1, 0, 0, 0))


# -- charts -------------------------------------------------------------------

def test_chart_fibers_are_the_generators():
    assert tuple(CHART_GENS[C][0] for C in range(4)) == SEGRE_CHARS


def test_chart_coords_of_generators_on_chart_zero():
    got = tuple(chart_coords(0, g) for g in SEGRE_CHARS)
    assert got == ((1, 0, 0), (1, 1, 1), (1, 1, 0), (1, 0, 1))


def test_chart_coords_rejects_off_lattice_points():
    assert chart_coords(0, (1, 0, 0, 0)) is None
    assert not chart_contains(2, (1, 0, 0, 0))


@given(st.integers(0, 3), small, small, small)
def test_chart_coords_invert_the_generator_matrix(C, a, b, c):
    u = (a, b, a + c, b - c)
    co = chart_coords(C, u)
    rebuilt = tuple(sum(co[k] * CHART_GENS[C][k][j] for k in range(3))
                    for j in range(4))
    assert rebuilt == u
    assert chart_char(C, co) == u


@given(st.integers(0, 3), small, small, small)
def test_chart_char_inverts_chart_coords(C, a, b, c):
    u = chart_char(C, (a, b, c))
    assert in_lattice(u)
    assert chart_coords(C, u) == (a, b, c)


@given(st.tuples(*[st.integers(0, 4)] * 4),
       st.lists(st.integers(0, 3), max_size=4, unique=True))
def test_character_is_the_sum_of_the_generator_characters(mon, wedge):
    u = (0, 0, 0, 0)
    for i, e in enumerate(mon):
        for _ in range(e):
            u = tuple(x + y for x, y in zip(u, SEGRE_CHARS[i]))
    for i in sorted(wedge):
        u = tuple(x + y for x, y in zip(u, SEGRE_CHARS[i]))
    assert character(mon, tuple(sorted(wedge))) == u
    if not wedge:
        assert character(mon) == u


# base coordinates of each chart, as positions in the character u
CHART_BASE = ((3, 1), (0, 2), (2, 1), (0, 3))


@given(st.integers(0, 3), small, small, small)
def test_chart_coords_are_xdeg_and_two_character_entries(C, a, b, c):
    # the bounds of character_support rest on this shape
    u = (a, b, a + c, b - c)
    i, j = CHART_BASE[C]
    assert chart_coords(C, u) == (xdeg(u), u[i], u[j])


def _generator_sum(C, T):
    """sum_{j in T} g_j over the chart-C generators."""
    return tuple(sum(CHART_GENS[C][j][i] for j in T) for i in range(4))


def _direct_label_coords(C, u, T):
    """chart_coords(C, u - sum_{j in T} g_j), summing the generators."""
    return chart_coords(C, tuple(x - s for x, s
                                 in zip(u, _generator_sum(C, T))))


@given(st.integers(0, 3), small, small, small, small, st.booleans())
def test_labels_shift_chart_coordinates_by_the_wedge(C, a, b, c, e, lattice):
    """The label walker reads u - sum(T) off the chart coordinates of u
    (linearity); here every label is placed by the direct formula."""
    u = (a, b, a + c, b - c) if lattice else (a, b, c, e)
    co = chart_coords(C, u)
    for m in range(4):
        for T in combinations(range(3), m):
            direct = _direct_label_coords(C, u, T)
            assert (co is None) == (direct is None)
            if co is not None:
                assert encech._label_coords(co, T) == direct
                assert encech._chart_d_vec(C, u, T) == {
                    newT: cf for _, newT, cf in d_terms(direct, T)}
    charts = [(C, ())] + [overlap_data(C, Q) for Q in range(C + 1, 4)]
    for kind, spec in encech.KINDS.items():
        for m in range(4):
            for base, F in charts:
                amb = []
                for T in spec.pool(m):
                    co_T = _direct_label_coords(base, u, T)
                    if (co_T is not None and co_T[0] >= spec.floor(T)
                            and all(co_T[j] >= 0 for j in (1, 2)
                                    if j not in F)):
                        amb.append(T)
                assert encech._labels(kind, m, base, F, u) == amb


def test_the_truncation_relations_are_the_cut():
    """The per-label truncation rule, fiber exponent >= n - [0 in T], holds
    for an ambient label exactly when xdeg(u) >= n: on every chart and
    overlap, for every kind, m <= 4, n <= 6 and lattice u with |u_i| <= 6.
    The fiber exponent is read off chart coordinates computed by summing
    generators, not off the walker.  An overlap reads its labels on the
    coordinates of its base chart, and kinds with the same pool and floor
    have the same labels, so each (base, pool, floor) is walked once."""
    r = range(-6, 7)
    lattice = [(a, b, c, a + b - c) for a in r for b in r for c in r
               if abs(a + b - c) <= 6]
    wedges = [T for m in range(4) for T in combinations(range(3), m)]
    walkers = {(spec.pool, spec.floor): kind
               for kind, spec in encech.KINDS.items()}
    checked = 0
    for C in range(4):
        overlaps = [overlap_data(C, Q) for Q in range(C + 1, 4)]
        for u in lattice:
            # the wedges whose label breaks the equivalence at some n
            fiber = {T: _direct_label_coords(C, u, T)[0] for T in wedges}
            off = {T for T in wedges
                   if any((fiber[T] >= n - (0 in T)) != (xdeg(u) >= n)
                          for n in range(1, 7))}
            for base, F in [(C, ())] + overlaps:
                for (pool, _), kind in walkers.items():
                    for m in range(5):
                        if pool(m):
                            labels = encech._labels(kind, m, base, F, u)
                            assert off.isdisjoint(labels)
                            checked += len(labels)
    assert checked > 50_000, checked


def test_every_generator_is_regular_on_every_chart():
    for C in range(4):
        for g in SEGRE_CHARS:
            assert chart_contains(C, g)


def test_overlap_invertible_positions():
    table = {}
    for P in range(4):
        for Q in range(P + 1, 4):
            base, F = overlap_data(P, Q)
            assert base == P
            table[(P, Q)] = set(F)
    assert table == {(0, 1): {1, 2}, (0, 2): {1}, (0, 3): {2},
                     (1, 2): {1}, (1, 3): {2}, (2, 3): {1, 2}}
    with pytest.raises(EngineError):
        overlap_data(1, 0)


def test_overlap_membership_rule():
    # position 1 of chart 0 is invertible on the (0,1) overlap, the fiber not
    base, inverted = overlap_data(0, 1)
    assert _s_contains_raw(base, inverted,
                           tuple(-x for x in CHART_GENS[0][1]))
    assert not _s_contains_raw(base, inverted,
                               tuple(-x for x in CHART_GENS[0][0]))
    for g in CHART_GENS[0] + CHART_GENS[1]:
        assert _s_contains_raw(base, inverted, g)


def test_chart_generator_consistency():
    v = chart_generator_consistency()
    assert v.ok
    assert v.details["problems"] == []
    assert v.details["F_table"] == {
        "0,1": [1, 2], "0,2": [1], "0,3": [2],
        "1,2": [1], "1,3": [2], "2,3": [1, 2]}


def test_a_failing_overlap_rule_fails_the_atlas_check(monkeypatch):
    overlap_data = encech.overlap_data

    def refuted(P, Q):
        if (P, Q) == (0, 1):
            raise EngineError("rule refuted")
        return overlap_data(P, Q)

    monkeypatch.setattr(encech, "overlap_data", refuted)
    v = chart_generator_consistency()
    assert not v.ok
    assert "0,1" not in v.details["F_table"]
    assert v.details["problems"] == [
        "rule refuted", "opposite pair (0,1) not a torus overlap"]


# -- global sections ----------------------------------------------------------

def test_structure_sheaf_section_counts():
    assert [global_sections("omega", 0, n).dim for n in (1, 2, 3, 4)] == \
        [1, 5, 14, 30]


def test_ideal_section_counts():
    assert global_sections("omega_tilde", 0, 1).dim == 0
    assert [global_sections("omega_tilde", 0, n).dim for n in (2, 3, 4)] == \
        [4, 13, 29]
    gs = global_sections("ideal_power", 0, 3)
    assert gs.dim == 13
    assert gs.dims_by_xdeg() == {1: 4, 2: 9}


def test_reduced_one_form_section_counts():
    gs = global_sections("omega_tilde", 1, 3)
    assert gs.dim == 19
    assert gs.dims_by_xdeg() == {1: 4, 2: 15}
    assert sections_system("omega_tilde", 1, 3).dims() == {1: 0, 2: 4, 3: 19}


def test_restrictions_are_surjective():
    assert restriction_map("omega_tilde", 1, 3).rank() == 19
    assert restriction_map("omega", 0, 2).rank() == 5


@pytest.mark.parametrize("kind,m", [("omega_tilde", 1), ("hc_top", 2),
                                    ("omega", 0), ("ideal_power", 0)])
def test_restriction_matches_the_section_coordinates(kind, m):
    """The projection restriction_map builds equals the map that expresses
    each level-(n+1) basis section in the coordinates of level n."""
    for n in range(1, 6):
        hi = global_sections(kind, m, n + 1)
        families = ((u, cs.family(v)) for u, cs in sorted(hi.chars.items())
                    for v in cs.basis)
        oracle = global_sections(kind, m, n).map_from(
            hi.space(), families, {}, "restriction is not defined")
        got = restriction_map(kind, m, n)
        assert got.domain.labels == oracle.domain.labels
        assert got.codomain.labels == oracle.codomain.labels
        assert got.images == oracle.images


_F = (0, 1, 0, 1)  # a degree-one generator


@pytest.mark.parametrize("u,family,expected", [
    (_F, {(0, (0,)): 1}, None),
    (_F, {(0, ()): 1}, None),
    ((0, 3, 0, 3), {(0, ()): 1}, {}),
    ((0, 3, 0, 3), {(0, (0,)): 1}, None),
    (_F, {(C, ()): 1 for C in range(4)}, {0: 1}),
], ids=["label-outside-ambient", "not-a-section", "relation",
        "label-outside-ambient-past-the-cut", "section"])
def test_coords_of_flat_families(u, family, expected):
    # ideal sections at level 3: at the generator f the one section is
    # x^f on every chart, the first basis vector; 3f lies past the cut
    # (xdeg 3 >= 3), where the chart-0 label () is a truncation relation
    # and dx-labels are outside the ambient of the functions
    gs = global_sections("omega_tilde", 0, 3)
    assert gs.space().labels[0] == (_F, 0)
    assert gs.coords(u, family, {}) == expected


def test_map_from_raises_the_given_error_on_a_non_section():
    gs = global_sections("omega_tilde", 0, 3)
    with pytest.raises(EngineError, match="^no section here$"):
        gs.map_from(VectorSpaceWithBasis(["x"]), [(_F, {(0, ()): 1})], {},
                    "no section here")


def test_pullback_respects_the_cone_relation():
    u12, f12 = pullback_section("ideal_power", (1, 1, 0, 0), (), {})
    u34, f34 = pullback_section("ideal_power", (0, 0, 1, 1), (), {})
    assert u12 == u34 == (1, 1, 1, 1)
    assert f12 == f34


# -- section-level verifiers --------------------------------------------------

def test_h0_surjection_level_three():
    v = verify_H0_surjection(1, 3)
    assert v.ok
    assert v.details == {"m": 1, "n": 3, "h0_tilde": 19,
                         "h0_image_d": 13, "h0_hc_top": 6}
    v0 = verify_H0_surjection(0, 3)
    assert v0.ok
    assert v0.details["h0_tilde"] == 13
    assert v0.details["h0_image_d"] == 0
    assert v0.details["h0_hc_top"] == 13


def test_alg_surjection_level_three():
    v = verify_alg_surjection(1, 3)
    assert v.ok
    assert v.details["uncovered_characters"] == []
    v3 = verify_alg_surjection(3, 3)
    assert v3.ok
    assert v3.details["target_zero"] is True
    with pytest.raises(EngineError):
        verify_alg_surjection(0, 3)


# -- character box control ----------------------------------------------------

def test_box_pad_stability_and_validation():
    baseline = global_sections("omega", 0, 2).dim
    try:
        set_box_pad(6)
        assert encech.BOX_PAD == 6
        assert global_sections("omega", 0, 2).dim == baseline
    finally:
        set_box_pad(4)
    assert encech.BOX_PAD == 4
    with pytest.raises(EngineError):
        set_box_pad(-1)


def test_box_guard_fires_below_the_support(monkeypatch):
    # the omega support at n = 4 reaches max|u_i| = 3 = n - 1
    global_sections.cache_clear()
    try:
        monkeypatch.setattr(encech, "BOX_PAD", -1)
        assert global_sections("omega", 0, 4).dim == 30
        global_sections.cache_clear()
        monkeypatch.setattr(encech, "BOX_PAD", -2)
        with pytest.raises(BoxInstabilityError):
            global_sections("omega", 0, 4)
    finally:
        global_sections.cache_clear()


# -- exhaustive oracle for the character support ------------------------------

def _box_scan(kind, m, n):
    """Every character at which some chart has a label that is not a
    truncation relation at level n (fiber exponent below n - [0 in T]), out
    to the padded box n + m + BOX_PAD + 2: the enumeration that
    global_sections prunes to the characters every chart sees."""
    pad = n + m + encech.BOX_PAD + 2
    spec = encech.KINDS[kind]
    found = set()
    for C in range(4):
        v, g1, g2 = CHART_GENS[C]
        for T in spec.pool(m):
            base = _generator_sum(C, T)
            for alpha in range(spec.floor(T), n - (0 in T)):
                for beta in range(pad + 4):
                    for gamma in range(pad + 4):
                        u = tuple(s + alpha * x + beta * y + gamma * z
                                  for s, x, y, z in zip(base, v, g1, g2))
                        if max(map(abs, u)) <= pad:
                            found.add(u)
    return found


def test_unknown_kind_is_an_engine_error():
    with pytest.raises(EngineError):
        global_sections("omega_hat", 1, 2)


def test_d_image_kinds_share_the_labels_of_their_ambient():
    for spec in encech.KINDS.values():
        ambient = encech.KINDS[spec.ambient]
        assert (spec.pool, spec.floor) == (ambient.pool, ambient.floor)
        assert spec.d_image or spec is ambient


# -- the KindSpec table itself, against hand counts of chart labels -----------

_WEDGE_KINDS = ("omega", "omega_tilde", "image_d", "hc_top")
_SIX_KINDS = _WEDGE_KINDS + ("horizontal", "ideal_power")
_FIBER, _BASE1 = CHART_GENS[0][0], CHART_GENS[0][1]
_HAND_CHARS = {"zero": (0, 0, 0, 0), "fiber": _FIBER,
               "fiber+base": tuple(x + y for x, y in zip(_FIBER, _BASE1))}
# chart-0 ambient labels by (character, kind, m); absent entries are empty
_HAND_AMBIENT = {
    "zero": {("omega", 0): [()], ("horizontal", 0): [()]},
    "fiber": {**{(k, 0): [()] for k in _SIX_KINDS},
              **{(k, 1): [(0,)] for k in _WEDGE_KINDS}},
    "fiber+base": {**{(k, 0): [()] for k in _SIX_KINDS},
                   **{(k, 1): [(0,), (1,)] for k in _WEDGE_KINDS},
                   ("horizontal", 1): [(1,)],
                   **{(k, 2): [(0, 1)] for k in _WEDGE_KINDS}},
}


@pytest.mark.parametrize("char", sorted(_HAND_CHARS))
@pytest.mark.parametrize("kind", _SIX_KINDS)
def test_chart_labels_match_hand_counts(kind, char):
    """Pins each kind's wedge pool and fiber floor, which the padded-box
    oracle cannot see (it prunes and scans the same table).

    Chart 0 is unimodular, so the label T of the chart at u has chart
    coordinates (a, b, c) - e_T, where (a, b, c) are the coordinates of u
    and e_T is the indicator of T: (0, 0, 0) at u = 0, (1, 0, 0) at the
    fiber generator f and (1, 1, 0) at f + g1.  T is an ambient label iff
    T is in the pool, b - [1 in T] >= 0, c - [2 in T] >= 0 and
    a' = a - [0 in T] >= floor(T).  The walker has no level: which labels
    are truncation relations is the cut that
    test_the_truncation_relations_are_the_cut checks.

    * u = 0: T = () is the only wedge with a', b', c' >= 0 (a' = 0; every
      floor is >= 0, so (0,) with a' = -1 is out).  Its floor is 0
      for omega and horizontal, 1 for the reduced kinds (omega_tilde,
      image_d, hc_top) and ideal_power, so only omega and horizontal have a
      label (m = 0: counts 1, 1, every other count 0).
    * u = f: T avoids 1 and 2, so T is () or (0,), with a' = 1 and 0, each
      at least its floor (the reduced floor of (0,) is 0).  () is in every
      kind's m = 0 pool, (0,) only in the full wedge pool (not horizontal's
      base pool, not ideal_power's functions): count 1 at m = 0 for all six
      kinds and 1 at m = 1 for the four wedge kinds.
    * u = f + g1: T avoids 2, so T is (), (0,), (1,) or (0, 1), with
      a' = 1, 0, 1, 0; every floor is met.  Counts: 1 at m = 0 for all six
      kinds; 2 at m = 1 for the wedge kinds ((0,), (1,)) and 1 for
      horizontal ((1,)); 1 at m = 2 for the wedge kinds ((0, 1)); horizontal
      has no m = 2 label (its only 2-wedge is (1, 2)), ideal_power none
      above m = 0, and no kind has an m = 3 label (the 3-wedge contains 2).
    """
    u = _HAND_CHARS[char]
    for m in range(4):
        amb = _HAND_AMBIENT[char].get((kind, m), [])
        assert encech._labels(kind, m, 0, (), u) == amb


# every (kind, m) the engine evaluates, for n <= 3; the H0-surjection
# kinds also at n = 4
_ORACLE_MS = {"omega": range(5), "omega_tilde": range(5),
              "image_d": range(5), "hc_top": range(5),
              "horizontal": (1, 2), "ideal_power": (0,)}
_ORACLE_CASES = (
    [(kind, m, n) for kind, ms in _ORACLE_MS.items() for m in ms
     for n in (1, 2, 3)]
    + [(kind, m, 4) for kind in ("omega_tilde", "image_d", "hc_top")
       for m in range(4)])


@pytest.mark.parametrize("kind,m,n", _ORACLE_CASES)
def test_support_matches_the_padded_box_scan(kind, m, n, monkeypatch):
    gs = global_sections(kind, m, n)
    # evaluate the box uncached, so the scan neither reuses nor keeps models
    monkeypatch.setattr(encech, "char_model", encech.char_model.__wrapped__)
    scanned = {}
    for u in _box_scan(kind, m, n):
        cs = encech.h0_char.__wrapped__(kind, m, u)
        if cs.dim:
            scanned[u] = cs
    assert sorted(scanned) == sorted(gs.chars)
    for u, cs in scanned.items():
        got = gs.chars[u]
        assert (got.dim, got.flat_labels, got.basis) == \
            (cs.dim, cs.flat_labels, cs.basis)
