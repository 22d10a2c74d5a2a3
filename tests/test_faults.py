"""Fault matrix: a check must not PASS when one engine layer it reads is
wrong.

Each fault monkeypatches one engine function or table, never a check
runner, at the name the check reads it by.  Each row names the exit code
the check must then give: 1, a FAIL with a non-empty witness list, or 2,
an engine ERROR whose witness carries the message.  The engine caches
what it computes (sheaf._cech_all and the lru caches of kaehler, ktheory
and encech), so every row runs between cleared caches: a faulty value
neither comes from an earlier test nor reaches a later one.
"""
import dataclasses
import json

import pytest

import segrecone.cli as cli
from segrecone import charts, encech, kaehler, ktheory, sheaf
from segrecone.linalg import LinearMap, vec_scale


def zero_chart_d(monkeypatch):
    """d on An is zero: aq-local's kernels of d grow."""
    monkeypatch.setattr(charts, "_chart_d_vec", lambda C, u, T: {})


def double_beta_of_dx3(monkeypatch):
    """beta(dx3) is twice -d_y(alpha(x3)): the cone syzygy leaves ker beta."""
    real = charts._model_beta

    def doubled(n, label):
        out = real(n, label)
        return vec_scale(2, out) if label[3] == 3 else out

    monkeypatch.setattr(charts, "_model_beta", doubled)


def _doubled_on_dx1_dy3(real):
    """The chart d ``real`` with every coefficient doubled whose wedge holds
    both the fiber and the first base differential."""
    def doubled(C, u, T):
        return {T2: 2 * cf if 0 in T2 and 1 in T2 else cf
                for T2, cf in real(C, u, T).items()}
    return doubled


def double_chart_d_on_dx1_dy3(monkeypatch):
    """d on An doubles every dx1^dy3 coefficient: the ranks of d keep, but
    d∘d(f dy3) becomes a nonzero multiple of f_x1y4 dx1^dy3^dy4."""
    monkeypatch.setattr(charts, "_chart_d_vec",
                        _doubled_on_dx1_dy3(charts._chart_d_vec))


def drop_one_truncation_relation(monkeypatch):
    """Each level's table of truncation relations loses alpha(d mu) for
    mu = x1^(n-1) x3, the one mu of chart grade (n, 1, 0): x1^(n-1) dx3
    survives in G_n/J_n, but not in J/J^2."""
    real = charts._alpha_relations

    def dropped(n):
        table = real(n)
        del table[(n, 1, 0)]
        return table

    monkeypatch.setattr(charts, "_alpha_relations", dropped)


def leave_g3_squared_out_of_j2(monkeypatch):
    """J^2 is spanned without g3^2, so J/J^2 grows past the model."""
    monkeypatch.setattr(charts, "_J2_TERMS",
                        {p: t for p, t in charts._J2_TERMS.items()
                         if p != (3, 3)})


def cut_one_level_low(monkeypatch):
    """The cut moves down one level: character_support drops the shell
    xdeg(u) = n - 1, so every section of the top layer is lost."""
    real = encech.character_support
    monkeypatch.setattr(
        encech, "character_support",
        lambda kind, m, n: {u for u in real(kind, m, n)
                            if encech.xdeg(u) < n - 1})


def drop_a_reduced_one_form_section(monkeypatch):
    """h0_char loses one basis vector of the reduced 1-forms at the
    character (1, 1, 1, 1)."""
    real = encech.h0_char

    def dropped(kind, m, u):
        cs = real(kind, m, u)
        if (kind, m, u) == ("omega_tilde", 1, (1, 1, 1, 1)):
            return dataclasses.replace(cs, basis=cs.basis[1:],
                                       dim=cs.dim - 1)
        return cs

    monkeypatch.setattr(encech, "h0_char", dropped)


def add_one_to_h1_inside_the_box(monkeypatch):
    """The Cech oracle gives one more h^1 at every character whose mask has
    all four conditions (have == 15): the layers of the reduced forms get
    first cohomology.  That mask never lies on the box boundary, so the box
    guard of sheaf._cech_all does not fire."""
    real = sheaf._char_cohomology

    def off_by_one(p, q, a, b):
        hs = real(p, q, a, b)
        if 0 <= p <= a and 0 <= q <= b:
            hs[1] += 1
        return hs

    monkeypatch.setattr(sheaf, "_char_cohomology", off_by_one)


def repeat_chi0_as_chi1(monkeypatch):
    """The Euler check reads chi0 in place of chi1: the coordinate
    sections' character matrix drops to rank 3."""
    chars = sheaf.SEGRE_CHARS
    monkeypatch.setattr(sheaf, "SEGRE_CHARS", (chars[0], chars[0]) + chars[2:])


def drop_d_of_three_forms(monkeypatch):
    """d of every 3-form is zero in the cone's Kaehler tower: rank d3 is 0
    while Omega^4 of the truncated cone is 1-dimensional from level 2 on."""
    real = kaehler.d_terms
    monkeypatch.setattr(kaehler, "d_terms",
                        lambda exps, wedge: [] if len(wedge) == 3
                        else real(exps, wedge))


def zero_omega_transitions(monkeypatch):
    """The weight-one source system's transitions are zero maps, so the
    square of the form-side map at level 2 does not commute."""
    real = ktheory.omega_transition

    def zero(m, n, tensor=False):
        f = real(m, n, tensor)
        return LinearMap(f.domain, f.codomain, [{}] * f.domain.dim)

    monkeypatch.setattr(ktheory, "omega_transition", zero)


FAULTS = [
    ("aq-local", zero_chart_d, 1),
    ("aq-local", double_chart_d_on_dx1_dy3, 1),
    ("aq-local", drop_one_truncation_relation, 1),
    ("aq-local", leave_g3_squared_out_of_j2, 1),
    ("pro-iso-d", double_beta_of_dx3, 1),
    ("key-seq", cut_one_level_low, 1),
    ("h0-surj", cut_one_level_low, 1),
    ("key-seq", drop_a_reduced_one_form_section, 1),
    ("h0-surj", drop_a_reduced_one_form_section, 1),
    ("vanish-omega", add_one_to_h1_inside_the_box, 1),
    ("euler", repeat_chi0_as_chi1, 1),
    ("k5plus", drop_d_of_three_forms, 1),
    ("k1", zero_omega_transitions, 2),
]


@pytest.fixture
def cold_caches():
    """Clear the engine's caches before the fault and after it is undone."""
    caches = [sheaf._cech_all] + [
        fn for module in (kaehler, ktheory, encech)
        for fn in vars(module).values() if hasattr(fn, "cache_clear")]
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("check,fault,expected", FAULTS,
                         ids=[f"{c}-{f.__name__}" for c, f, _ in FAULTS])
def test_the_check_fails_under_the_fault(cold_caches, capsys, monkeypatch,
                                         check, fault, expected):
    fault(monkeypatch)
    code = cli.main(["verify", check, "--nmax", "4", "--window", "3"])
    rec = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == expected
    assert rec["verdict"] == {1: "FAIL", 2: "ERROR"}[expected]
    assert rec["witnesses"]


def test_an_incompatible_relation_names_its_kind_and_character(
        cold_caches, capsys, monkeypatch):
    """With the dx1^dy3 coefficients of the section models' d doubled, a
    d-image of hc_top is no longer a compatible section: h0-surj is an
    engine error whose witness names the kind, m, the character and the
    chart."""
    monkeypatch.setattr(encech, "_chart_d_vec",
                        _doubled_on_dx1_dy3(encech._chart_d_vec))
    code = cli.main(["verify", "h0-surj", "--nmax", "4"])
    rec = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == 2
    assert rec["verdict"] == "ERROR"
    [witness] = rec["witnesses"]
    assert witness["error"] == ("hc_top m=2 u=(0, 2, 1, 1) chart 0: relation"
                                " family is not a compatible section")


def test_a_relation_that_does_not_lift_names_its_level_and_grade(
        capsys, monkeypatch):
    """Without g3 g4 in J^2 a model relation does not lift: aq-local is an
    engine error whose witness names the level and the chart grade."""
    monkeypatch.setattr(charts, "_J2_TERMS",
                        {p: t for p, t in charts._J2_TERMS.items()
                         if p != (3, 4)})
    code = cli.main(["verify", "aq-local", "--nmax", "4", "--window", "3"])
    rec = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == 2
    assert rec["verdict"] == "ERROR"
    [witness] = rec["witnesses"]
    assert witness["error"] == ("model relation does not lift into J^2"
                                " at level 3, chart grade (2, 1, 1)")


def test_a_ring_model_mismatch_names_its_chart_grades(capsys, monkeypatch):
    """Without g3^2, J/J^2 outgrows the model first at level 3, chart grade
    (2, 2, 0): x1^2 y3^2 carries g3^2."""
    leave_g3_squared_out_of_j2(monkeypatch)
    code = cli.main(["verify", "aq-local", "--nmax", "3", "--window", "2"])
    rec = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == 1
    [witness] = rec["witnesses"]
    assert witness["relative_cotangent"] == 3
    assert witness["chart_grades"][0] == [2, 2, 0]
