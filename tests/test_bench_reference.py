"""The benchmark's frozen records agree with what the engine reports.

`bench/reference/<workload>.json` holds the records a benchmark run must
reproduce.  `forms-tower` is compared in test_golden.py; here are the other
two, so that a drift in the reports fails the suite instead of a later
benchmark run.  Both files are only read.

* `verify-all`: one record per check of `segrecone verify all`, which
  `tests/data/verify_all.json` also holds; the two must agree apart from
  the benchmark's `exit_code`.
* `cech-audit`: three `segrecone verify` calls, each built the way
  `bench/child.py` builds it: the first check record of the JSON report
  without `elapsed`, with the exit code added.
"""
import json
from pathlib import Path

import segrecone.cli as cli

ROOT = Path(__file__).parent.parent
REFERENCE = ROOT / "bench" / "reference"
GOLDEN = Path(__file__).parent / "data" / "verify_all.json"
DEFAULTS = ["--nmax", "5", "--window", "3", "--box-pad", "4", "--jobs", "1"]


def _reference(workload):
    return json.loads((REFERENCE / f"{workload}.json").read_text(
        encoding="utf-8"))


def test_verify_all_reference_matches_the_golden_report():
    reference = {name: {k: v for k, v in rec.items() if k != "exit_code"}
                 for name, rec in _reference("verify-all").items()}
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["checks"]
    assert reference == {rec["check_id"]: {k: v for k, v in rec.items()
                                           if k != "elapsed"}
                         for rec in golden}


def test_cech_audit_reference_matches_the_cli(capsys):
    records = {}
    for check, coh_range in (("coh-main", "-8..8"), ("vanish-omega", "-6..6"),
                             ("euler", "-6..6")):
        code = cli.main(["verify", check, *DEFAULTS, "--range", coh_range])
        record = json.loads(capsys.readouterr().out)["checks"][0]
        record.pop("elapsed")
        record["exit_code"] = code
        records[check] = record
    assert records == _reference("cech-audit")
