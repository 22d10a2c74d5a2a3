"""End-to-end acceptance suite.

Every test here freezes one headline guarantee of the engine as exact
integer, matrix, or verdict equalities; there are no tolerances anywhere.
Oracles come from three independent sources: closed-form cohomology counts
on the quadric surface, hand-derived dimension counts recorded with the
module tests, and double computations along routes that share no code with
the primary one.  The three slow checks also pin their runtime budgets.
"""

import time

from segrecone.charts import (
    beta_kernel_system,
    d1_base_report,
    d1_relative_report,
)
from segrecone.encech import verify_H0_surjection, verify_alg_surjection
from segrecone.kaehler import (
    DifferentialModule,
    omega4_cone_check,
    pro_exterior_power_check,
    q_tensor_module,
    qn_algebra,
    qn_module,
)
from segrecone.ktheory import (
    compute_K3,
    compute_K4,
    k3_component,
    verify_K1,
    verify_K5plus_inputs,
)
from segrecone.monoid import (
    c_divisibility_witness,
    cone_relation,
    gubeladze_monoid,
    is_normal_up_to,
    toric_ideal,
)
from segrecone.polyring import reduce_full, truncated_quotient
from segrecone.sheaf import (
    LineBundle,
    audit_cohomology_formulas,
    audit_summary,
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

M = gubeladze_monoid()


def test_01_cohomology_closed_forms_match_the_cech_oracle():
    """Line-bundle cohomology on the quadric, three ways, on a 13x13 box.

    The lattice-point Cech oracle must agree with the product closed form
    for every twist (a, b) in [-6, 6]^2 and every degree i in {0, 1, 2};
    the Kunneth identity, the Euler characteristic chi = (a+1)(b+1), and
    Serre duality are checked on the same box, and the form-twist closed
    forms must agree with their expansions into line-bundle summands.
    """
    start = time.monotonic()
    for a in range(-6, 7):
        for b in range(-6, 7):
            bundle = LineBundle(a, b)
            for i in range(3):
                cech = coh_cech_oracle(bundle, i)
                assert cech == h_closed(bundle, i)
                assert cech == sum(h_p1(a, p) * h_p1(b, i - p)
                                   for p in range(i + 1))
            assert euler_characteristic(bundle) == (a + 1) * (b + 1)
            assert euler_char_check(bundle)
            assert serre_dual_check(bundle)
    for p in range(3):
        for n in range(-6, 7):
            for i in range(3):
                expanded = sum(coh_cech_oracle(piece, i)
                               for piece in expand_omega_twist(p, n))
                assert coh_closed_form(p, n, i) == expanded
    assert time.monotonic() - start < 30.0


def test_02_published_formula_audit_flags_exactly_one_item():
    """Of the nine published cohomology formulas, eight reproduce verbatim
    for n in [-5, 5]; the ninth (item 4, an h^2 value) disagrees with the
    oracle for n < -1, where duality forces (-1-n)^2 in place of the
    literal (3-n)^2.  The engine itself must agree with the oracle on
    every single record."""
    records = audit_cohomology_formulas(range(-5, 6))
    assert len(records) == 11 * 12
    for r in records:
        assert r["implemented_agrees"]
        if r["item"] != 4:
            assert r["literal_agrees"]
        else:
            assert r["literal_agrees"] == (r["n"] >= -1)
    summary = audit_summary(range(-5, 6))
    assert summary.ok
    assert summary.details["items_flagged"] == [4]
    findings = {f["n"]: f for f in summary.details["findings"]}
    assert sorted(findings) == [-5, -4, -3, -2]
    for n, f in findings.items():
        assert f["item"] == 4 and f["i"] == 2
        assert f["literal"] == (3 - n) ** 2
        assert f["oracle"] == (-1 - n) ** 2
        assert f["literal"] != f["oracle"]


def test_03_weight_one_vanishing_certificate():
    """Both weight-one boundary terms vanish at nmax = 5, window = 3.

    Ideal side: the augmentation-power quotient maps isomorphically onto
    the ideal sections at every level, with dimension sum_{j<n} (j+1)^2
    (4, 13, 29, 54) split degree by degree into (j+1)^2 distinct
    characters.  Form side: the comparison of the one-form towers is a
    certified pro-isomorphism at window 3.  The full certificate must
    finish within two minutes.
    """
    start = time.monotonic()
    verdict = verify_K1(5, 3)
    assert verdict.ok
    assert verdict.details["window"] == 3
    levelwise = verdict.details["ideal_side_levelwise"]
    assert sorted(levelwise) == [2, 3, 4, 5]
    for n, rec in levelwise.items():
        expected = sum((j + 1) ** 2 for j in range(1, n))
        assert rec["dim_mbar_quotient"] == expected
        assert rec["dim_ideal_sections"] == expected
        assert rec["rank"] == expected
        assert rec["dims_by_degree"] == {j: (j + 1) ** 2
                                         for j in range(1, n)}
    assert {n: levelwise[n]["dim_mbar_quotient"] for n in (2, 3, 4)} == \
        {2: 4, 3: 13, 4: 29}
    assert verdict.details["form_side_pro_iso"]["window"] == 3
    assert verdict.details["source_dims"] == \
        {1: 0, 2: 10, 3: 35, 4: 81, 5: 154}
    assert verdict.details["target_dims"] == \
        {1: 0, 2: 4, 3: 19, 4: 51, 5: 106}
    assert time.monotonic() - start < 120.0


def test_04_weight_four_witness_survives_every_level():
    """The class of x1 dx2 dx3 dx4 exhibits weight-four non-vanishing up
    to level 6: at every level n >= 2 the top Hodge piece and the top
    forms are one-dimensional, the witness maps under d to the nonzero
    top form, and the transitions are surjective and carry witness to
    witness.  The tensor-side check confirms dim = 1 with every
    coordinate annihilating the generator."""
    system, verdict = compute_K4(6)
    assert verdict.ok
    assert verdict.details["nonzero_from_level"] == 2
    assert system.dims() == {1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
    per = verdict.details["per_level"]
    assert per[1]["dim"] == 0 and per[1]["dim_top_form"] == 0
    for n in range(2, 7):
        assert per[n]["dim"] == 1
        assert per[n]["dim_top_form"] == 1
        assert per[n]["witness_d_image_nonzero"]
        assert per[n]["witness_d_image_is_top_form"]
    for n in range(1, 6):
        assert per[n]["transition_surjective"]
        assert per[n]["witness_compatible"]

    cone = omega4_cone_check(6)
    assert cone.ok
    assert cone.witness == {"class": "dx1^dx2^dx3^dx4", "level": 1}
    for n in range(1, 7):
        rec = cone.details["per_level"][n]
        assert rec["dim_tensor_omega4"] == 1
        assert rec["dim_omega4"] == (1 if n >= 2 else 0)
        assert rec["w_nonzero"] and rec["x_times_w_zero"]
        if n < 6:
            assert rec["transition_fixes_w"]


def test_05_degree_three_differential_is_onto_and_degree_five_vanishes():
    """Weight >= 5 inputs up to level 6: d in degree 3 surjects onto the
    one-dimensional top forms (so the degree-4 cyclic quotient vanishes)
    and there are no five-forms at all."""
    verdict = verify_K5plus_inputs(6)
    assert verdict.ok
    per = verdict.details["per_level"]
    assert sorted(per) == list(range(1, 7))
    for n, rec in per.items():
        expected_top = 1 if n >= 2 else 0
        assert rec["rank_d3"] == expected_top
        assert rec["dim_omega4"] == expected_top
        assert rec["dim_omega5"] == 0


# Frozen section counts for the H0 surjectivity sweep: h0 of the reduced
# forms, of the d-image subsheaf, and of the top cyclic quotient.  The
# (m, n) = (0, *) column repeats the ideal dims 4/13/29 from weight one,
# and (1, 3) = 19/13/6 matches the hand Kunneth count in the chart tests.
_H0_TABLE = {
    (0, 1): (0, 0, 0), (0, 2): (4, 0, 4),
    (0, 3): (13, 0, 13), (0, 4): (29, 0, 29),
    (1, 1): (0, 0, 0), (1, 2): (4, 4, 0),
    (1, 3): (19, 13, 6), (1, 4): (51, 29, 22),
    (2, 1): (0, 0, 0), (2, 2): (0, 0, 0),
    (2, 3): (7, 6, 1), (2, 4): (27, 22, 5),
    (3, 1): (0, 0, 0), (3, 2): (0, 0, 0),
    (3, 3): (1, 1, 0), (3, 4): (5, 5, 0),
}


def test_06_vanishing_suite_and_section_surjectivity():
    """Certified vanishing and surjectivity on the thickenings.

    (a) H^i of every reduced form sheaf vanishes for i in {1, 2}, m <= 4,
    n <= 5, certified layer by layer through the line-bundle filtration.
    (b) Sections of the top cyclic quotient are exactly sections of the
    reduced forms modulo d-images, with the projection onto, for m <= 3,
    n <= 4; the dimension triples are frozen.  (c) In degree 3 the
    quotient target is zero outright for n <= 4.  The whole suite must
    finish within 15 seconds.
    """
    start = time.monotonic()
    for n in range(1, 6):
        for m in range(0, 5):
            filt = filtration_tilde_omega(m, n)
            for i in (1, 2):
                assert h_filtered(filt, i) == (0, True)

    for (m, n), (tilde, image_d, hc_top) in sorted(_H0_TABLE.items()):
        verdict = verify_H0_surjection(m, n)
        assert verdict.ok
        assert verdict.details["h0_tilde"] == tilde
        assert verdict.details["h0_image_d"] == image_d
        assert verdict.details["h0_hc_top"] == hc_top
        assert hc_top == tilde - image_d

    for n in range(1, 5):
        verdict = verify_alg_surjection(3, n)
        assert verdict.ok
        assert verdict.details["target_zero"] is True
        assert verdict.details["uncovered_characters"] == []
    assert time.monotonic() - start < 15.0


def test_07_cotangent_models_and_kernel_transition_vanishing():
    """The naive-cotangent reports and the restriction-kernel tower.

    Base side: the degree-1 cotangent piece of the chart subring sits
    inside (x^n)/(x^2n) with kernel exactly (x^(n+1))/(x^2n), dimension
    n - 1 per y-monomial, for n = 2..5.  Relative side: the slicewise
    ring computation reproduces the quotient model in every slice up to
    y-degree 6.  The restriction-kernel tower has every window-1
    composite zero, with the closed-form carrier verified slice by
    slice.  The Euler-sequence identification pins the zero conclusion.
    """
    for n in range(2, 6):
        base = d1_base_report(n)
        assert base.ok
        assert base.details["model"] == f"(x^{n + 1})/(x^{2 * n})"
        assert base.details["dim_per_y_monomial"] == n - 1
        assert base.details["kernel_exponents"] == list(range(n + 1, 2 * n))

        rel = d1_relative_report(n, ybound=6)
        assert rel.ok
        slices = rel.details["slices"]
        assert slices
        assert any(rec["d1_ring"] > 0 for rec in slices.values())
        for rec in slices.values():
            assert rec["conormal_ring"] == rec["conormal_model"]
            assert rec["d1_ring"] == rec["d1_model"]

    beta = beta_kernel_system(5, ybound=6)
    assert beta.ok
    assert beta.details["window"] == 1
    assert beta.details["kernel_class_dims"] == {2: 0, 3: 0, 4: 0, 5: 0}
    assert beta.details["kernel_vectors_checked"] > 0

    euler = euler_identification_check()
    assert euler.ok
    assert euler.details["character_matrix_rank"] == 4
    assert euler.details["conclusion"] == {
        "h0_restricted_cotangent_twist": 0,
        "h1_restricted_cotangent_twist": 0,
    }


def test_08_monoid_presentation_divisibility_and_normality():
    """The defining monoid: its toric ideal is the single cone binomial
    (shown by mutual Groebner reduction), no c in 2..12 makes it
    c-divisible (each witness is checked against the definition), and it
    is normal through degree 6."""
    gens = toric_ideal(M, check_degree=6)
    rel = cone_relation()
    assert len(gens) == 1
    assert reduce_full(gens[0], [rel]).is_zero()
    assert reduce_full(rel, gens).is_zero()

    for c in range(2, 13):
        w = c_divisibility_witness(M, c, degree_bound=6)
        assert w is not None
        assert M.contains(w) and any(w)
        divisible = (all(x % c == 0 for x in w)
                     and M.contains(tuple(x // c for x in w)))
        assert not divisible

    assert is_normal_up_to(M, 6)


def test_09_structural_identities_and_double_computations():
    """Global sanity of the exact machinery.

    (a) d compose d = 0 and the Leibniz rule hold on the differential
    modules of the truncated cone algebras at every constructed level,
    and on a one-variable control module.  The tensor-side comparison
    modules satisfy d compose d = 0 on monomial lifts but are not
    differential graded algebras over the truncated ring (truncation
    kills products before it kills their differentials); the engine
    never uses their d maps, and verify_leibniz reports the failure
    honestly.  (b) Every truncated algebra is commutative and
    associative.  (c) Pro-certificates are monotone in the window: each
    family that passes at its smallest window passes at every larger
    one.  (d) The weight-three kernel tower from the filtration route
    equals the componentwise kernels of the comparison maps; the builder
    re-derives every target dimension along an independent closed-form
    route and raises on any mismatch, so constructing the tower is
    itself a double computation.
    """
    # imported here, not at the top: bench/test_bench.py loads this module
    # from its file to read _H0_TABLE, without tests/ on sys.path
    from laws import (verify_associative, verify_commutative,
                      verify_d_squared, verify_leibniz)

    for n in range(1, 7):
        dm = qn_module(n)
        assert verify_d_squared(dm)
        assert verify_leibniz(dm)
    line = truncated_quotient([], 3, nvars=1)
    control = DifferentialModule(line, line.gb.elements)
    assert verify_d_squared(control)
    assert verify_leibniz(control)
    for n in range(1, 7):
        assert verify_d_squared(q_tensor_module(n))
    assert not verify_leibniz(q_tensor_module(2))

    for n in range(1, 7):
        alg = qn_algebra(n)
        assert verify_commutative(alg)
        if n <= 4:
            assert verify_associative(alg)
        else:
            assert verify_associative(alg, max_triples=5000)

    k1_windows = {w: verify_K1(4, w).ok for w in (2, 3)}
    assert k1_windows[2] and k1_windows[3]
    for r in (1, 5):
        power_windows = {w: pro_exterior_power_check(r, 4, w).ok
                         for w in (1, 2, 3)}
        assert power_windows == {1: True, 2: True, 3: True}

    tower = compute_K3(4)
    assert tower.dims() == {1: 0, 2: 4, 3: 13, 4: 25}
    for n in range(1, 5):
        assert len(k3_component(n).kernel()) == tower.dims()[n]
