"""Fault matrix: a check must FAIL when one engine layer it reads is wrong.

Each fault monkeypatches one engine function, never a check runner, at
the name the check reads it by.  The check must then exit 1 with a
non-empty witness list.  The section spaces of encech are cached, so
every row runs between cleared caches.
"""
import dataclasses
import json

import pytest

import segrecone.cli as cli
from segrecone import charts, encech
from segrecone.linalg import vec_scale


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


def double_chart_d_on_dx1_dy3(monkeypatch):
    """d on An doubles every dx1^dy3 coefficient: the ranks of d keep, but
    d∘d(f dy3) becomes a nonzero multiple of f_x1y4 dx1^dy3^dy4."""
    real = charts._chart_d_vec

    def doubled(C, u, T):
        return {T2: 2 * cf if 0 in T2 and 1 in T2 else cf
                for T2, cf in real(C, u, T).items()}

    monkeypatch.setattr(charts, "_chart_d_vec", doubled)


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


FAULTS = [
    ("aq-local", zero_chart_d),
    ("aq-local", double_chart_d_on_dx1_dy3),
    ("aq-local", drop_one_truncation_relation),
    ("aq-local", leave_g3_squared_out_of_j2),
    ("pro-iso-d", double_beta_of_dx3),
    ("key-seq", cut_one_level_low),
    ("h0-surj", cut_one_level_low),
    ("key-seq", drop_a_reduced_one_form_section),
    ("h0-surj", drop_a_reduced_one_form_section),
]


@pytest.fixture
def cold_sections():
    """Clear the section caches before the fault and after it is undone."""
    caches = (encech.global_sections, encech.h0_char)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("check,fault", FAULTS,
                         ids=[f"{c}-{f.__name__}" for c, f in FAULTS])
def test_the_check_fails_under_the_fault(cold_sections, capsys, monkeypatch,
                                         check, fault):
    fault(monkeypatch)
    code = cli.main(["verify", check, "--nmax", "4", "--window", "3"])
    rec = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == 1
    assert rec["verdict"] == "FAIL"
    assert rec["witnesses"]


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
