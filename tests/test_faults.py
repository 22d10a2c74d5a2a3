"""Fault matrix: a check must FAIL when one engine layer it reads is wrong.

Each fault monkeypatches one engine function, never a check runner, at
the name the check reads it by.  The check must then exit 1 with a
non-empty witness list.
"""
import json

import pytest

import segrecone.cli as cli
from segrecone import charts
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


FAULTS = [
    ("aq-local", zero_chart_d),
    ("aq-local", double_chart_d_on_dx1_dy3),
    ("aq-local", drop_one_truncation_relation),
    ("aq-local", leave_g3_squared_out_of_j2),
    ("pro-iso-d", double_beta_of_dx3),
]


@pytest.mark.parametrize("check,fault", FAULTS,
                         ids=[f"{c}-{f.__name__}" for c, f in FAULTS])
def test_the_check_fails_under_the_fault(capsys, monkeypatch, check, fault):
    fault(monkeypatch)
    code = cli.main(["verify", check, "--nmax", "4", "--window", "3"])
    rec = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == 1
    assert rec["verdict"] == "FAIL"
    assert rec["witnesses"]
