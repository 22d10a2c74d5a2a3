"""Command-line driver: exit codes, output formats, determinism, and what
a fresh process keeps in memory."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import segrecone
import segrecone.cli as cli
from segrecone import ktheory
from segrecone import monoid as monoids
from segrecone import sheaf
from segrecone.errors import BoxInstabilityError


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def zero_elapsed(doc):
    for c in doc["checks"]:
        c["elapsed"] = 0.0
    return doc


def test_verify_pass_json(capsys):
    code, out, _ = run(capsys, "verify", "euler")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"]
    assert doc["config"]["nmax"] == 5
    (rec,) = doc["checks"]
    assert rec["check_id"] == "euler"
    assert rec["verdict"] == "PASS"
    assert rec["paper_anchor"].strip()
    assert isinstance(rec["elapsed"], float)


def test_verify_csv_and_text(capsys):
    code, out, _ = run(capsys, "verify", "monoid", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "check_id,verdict,elapsed,paper_anchor"
    code, out, _ = run(capsys, "verify", "monoid", "--format", "text")
    assert code == 0
    assert "[PASS ] monoid" in out


def test_verify_unknown_check_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_invalid_config_exits_two(capsys):
    code, _, err = run(capsys, "verify", "euler", "--nmax", "3",
                       "--window", "3")
    assert code == 2
    assert "error:" in err and "nmax" in err


def test_bad_range_exits_two(capsys):
    code, _, err = run(capsys, "verify", "coh-main", "--range", "x..y")
    assert code == 2
    assert "bad range" in err


def test_fail_exit_code_and_stderr(capsys, monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "euler",
                        lambda cfg: (False, [{"reason": "forced"}], {}))
    code, out, err = run(capsys, "verify", "euler")
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"][0]["verdict"] == "FAIL"
    assert doc["checks"][0]["witnesses"] == [{"reason": "forced"}]
    assert "FAIL euler" in err


def test_engine_error_exit_code(capsys, monkeypatch):
    def boom(cfg):
        raise BoxInstabilityError("support outside box")
    monkeypatch.setitem(cli._RUNNERS, "euler", boom)
    code, out, err = run(capsys, "verify", "euler")
    assert code == 2
    rec = json.loads(out)["checks"][0]
    assert rec["verdict"] == "ERROR"
    assert rec["witnesses"] == [{"error": "support outside box",
                                 "type": "BoxInstabilityError"}]
    assert "ERROR euler" in err


def test_verify_several_checks(capsys):
    code, out, _ = run(capsys, "verify", "vanish-omega", "k4")
    assert code == 0
    doc = zero_elapsed(json.loads(out))
    assert [c["check_id"] for c in doc["checks"]] == ["k4", "vanish-omega"]
    assert all(c["verdict"] == "PASS" for c in doc["checks"])
    _, out2, _ = run(capsys, "verify", "k4", "vanish-omega")
    assert zero_elapsed(json.loads(out2)) == doc
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "k4", "all"])
    assert exc.value.code == 2


def test_check_ids_may_follow_options(capsys):
    def text_report(*argv):
        code, out, _ = run(capsys, *argv)
        return code, re.sub(r"\([0-9.e-]+s\)", "(elapsed)", out)
    expected = text_report("verify", "euler", "k4", "--format", "text")
    assert expected[0] == 0
    assert "] k4 (elapsed)" in expected[1]
    assert text_report("verify", "euler", "--format", "text", "k4") == expected
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "euler", "--format", "text", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "hilbert", "--nmax", "4", "k4"])
    assert exc.value.code == 2


def test_monoid_check_fails_on_a_witness_outside_the_definition(
        capsys, monkeypatch):
    # 2 * (1, 1, 1, 1) with (1, 1, 1, 1) = z1z3 + z2z4 in the monoid: a
    # 2-divisible element, so no witness against 2-divisibility
    monkeypatch.setattr(monoids, "c_divisibility_witness",
                        lambda m, c, degree_bound: (2, 2, 2, 2))
    code, out, err = run(capsys, "verify", "monoid")
    assert code == 1
    rec = json.loads(out)["checks"][0]
    assert rec["verdict"] == "FAIL"
    assert rec["witnesses"] == [{"invalid_witness": [2, 2, 2, 2], "c": 2}]
    assert "FAIL monoid" in err


def test_k3_fails_when_the_componentwise_kernels_disagree(capsys,
                                                          monkeypatch):
    class Tower:
        def dims(self):
            return {1: 0, 2: 4, 3: 14}
    monkeypatch.setattr(ktheory, "compute_K3", lambda nmax: Tower())
    code, out, err = run(capsys, "verify", "k3", "--nmax", "3",
                         "--window", "2")
    assert code == 1
    rec = json.loads(out)["checks"][0]
    assert rec["verdict"] == "FAIL"
    assert rec["witnesses"] == [{"level": 3, "pro_kernel_dim": 14,
                                 "component_kernel_dim": 13}]
    assert "FAIL k3" in err


def test_verify_all_with_jobs_uses_stub_runners(capsys, monkeypatch):
    for check_id in cli._RUNNERS:
        ok = check_id != "k4"
        monkeypatch.setitem(
            cli._RUNNERS, check_id,
            lambda cfg, ok=ok: (ok, [] if ok else [{"w": 1}], {}))
    code, out, _ = run(capsys, "verify", "all", "--jobs", "3")
    assert code == 1  # the stubbed k4 failure dominates
    doc = json.loads(out)
    ids = [c["check_id"] for c in doc["checks"]]
    assert ids == sorted(cli.CHECK_IDS)
    by_id = {c["check_id"]: c["verdict"] for c in doc["checks"]}
    assert by_id["k4"] == "FAIL"
    assert all(v == "PASS" for k, v in by_id.items() if k != "k4")


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter on this segrecone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(segrecone.__file__).parent.parent),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_no_thread_pool():
    """The --jobs pool is imported only when a run asks for one."""
    out = _fresh_python("import sys, segrecone.cli; "
                        "print('concurrent.futures' in sys.modules)")
    assert out.split() == ["False"]


def test_verify_all_keeps_no_character_model():
    """char_model's size-0 cache keeps no model but still counts the
    evaluations: one per h0_char evaluation, 422 at the default config."""
    out = _fresh_python(
        "import os, segrecone.cli as cli, segrecone.encech as encech; "
        "code = cli.main(['verify', 'all', '--out', os.devnull]); "
        "info = encech.char_model.cache_info(); "
        "print(code, info.currsize, info.misses)")
    assert out.split() == ["0", "0", "422"]


def test_audit_check_reports_the_flagged_item(capsys):
    code, out, _ = run(capsys, "verify", "coh-main", "--range", "-6..6")
    assert code == 0
    rec = json.loads(out)["checks"][0]
    assert rec["verdict"] == "PASS"
    flagged = [w for w in rec["witnesses"] if w.get("flag") == "paper-typo"]
    assert flagged
    assert all(w["item"] == 4 for w in flagged)
    assert {w["n"] for w in flagged} == {-2, -3, -4, -5, -6}


def test_coh_main_fails_when_a_closed_form_disagrees(capsys, monkeypatch):
    real = sheaf.coh_closed_form

    def off_at_one_point(p, twist, i):
        return real(p, twist, i) + ((p, twist, i) == (1, 2, 0))

    monkeypatch.setattr(sheaf, "coh_closed_form", off_at_one_point)
    code, out, _ = run(capsys, "verify", "coh-main", "--range", "-3..3")
    assert code == 1
    rec = json.loads(out)["checks"][0]
    assert rec["verdict"] == "FAIL"
    assert [w for w in rec["witnesses"] if "closed_vs_oracle" in w] == \
        [{"closed_vs_oracle": [1, 2, 0]}]


def test_key_seq_fails_when_no_cell_is_certified(capsys, monkeypatch):
    monkeypatch.setattr(sheaf, "h_filtered", lambda filt, i: (0, False))
    code, out, _ = run(capsys, "verify", "key-seq")
    assert code == 1
    rec = json.loads(out)["checks"][0]
    assert rec["verdict"] == "FAIL"
    assert rec["dims"] == {}
    assert rec["witnesses"] == [{"m": m, "n": n, "certified": False}
                                for m in range(4) for n in range(1, 5)]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "euler", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["checks"][0]["check_id"] == "euler"


def test_reports_are_deterministic_modulo_elapsed(capsys):
    _, out1, _ = run(capsys, "verify", "monoid")
    _, out2, _ = run(capsys, "verify", "monoid")
    d1 = zero_elapsed(json.loads(out1))
    d2 = zero_elapsed(json.loads(out2))
    assert d1 == d2


def test_table_hilbert(capsys):
    code, out, _ = run(capsys, "table", "hilbert", "--nmax", "4")
    assert code == 0
    t = json.loads(out)["table"]
    assert t["table_id"] == "hilbert"
    assert t["header"] == ["degree", "dim"]
    assert t["rows"] == [[0, 1], [1, 4], [2, 9], [3, 16]]


def test_table_omega_dims(capsys):
    code, out, _ = run(capsys, "table", "omega-dims", "--nmax", "3",
                       "--window", "2")
    assert code == 0
    t = json.loads(out)["table"]
    assert t["rows"] == [[1, 1, 0, 0, 0, 0],
                         [2, 5, 10, 10, 5, 1],
                         [3, 14, 35, 35, 14, 1]]


def test_table_k4_system_csv(capsys):
    code, out, _ = run(capsys, "table", "k4-system", "--nmax", "3",
                       "--window", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,dim,transition_rank,witness_nonzero"
    assert lines[1] == "1,0,0,0"
    assert lines[2] == "2,1,1,1"
    assert lines[3] == "3,1,,1"


def test_table_k3_system(capsys):
    code, out, _ = run(capsys, "table", "k3-system", "--nmax", "3",
                       "--window", "2")
    assert code == 0
    t = json.loads(out)["table"]
    assert t["rows"] == [[1, 0], [2, 4], [3, 13]]


def test_tables_at_nmax_three_carry_the_k_report_numbers(capsys):
    def rows(table_id):
        code, out, _ = run(capsys, "table", table_id, "--nmax", "3",
                           "--window", "2")
        assert code == 0
        return json.loads(out)["table"]["rows"]

    assert rows("hilbert") == [[0, 1], [1, 4], [2, 9]]
    k4 = rows("k4-system")
    assert {n: dim for n, dim, _, _ in k4} == {1: 0, 2: 1, 3: 1}
    assert {n: rank for n, _, rank, _ in k4 if n < 3} == {1: 0, 2: 1}
    assert dict(rows("k3-system")) == {1: 0, 2: 4, 3: 13}
    assert rows("omega-dims")[1] == [2, 5, 10, 10, 5, 1]


def test_unknown_table_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "nope"])
    assert exc.value.code == 2
