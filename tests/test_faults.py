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


FAULTS = [
    ("aq-local", zero_chart_d),
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
