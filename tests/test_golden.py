"""Golden reports: `verify all` and the four tables at the default config,
byte for byte.

`tests/data/verify_all.json` is the JSON report of
`segrecone verify all --nmax 5 --window 3` with every `elapsed` field
removed (elapsed time is outside the determinism contract).
`tests/data/table_<id>.json` is the JSON output of `segrecone table <id>`
at the default config.  A change that is meant to alter a report
regenerates its file and says why; any other difference is a regression.

The forms tower at level 8 is compared with the benchmark's frozen
records in `bench/reference/forms-tower.json`, built the way the benchmark
builds them; this test only reads that file.
"""
import json
from pathlib import Path

import pytest

import segrecone.cli as cli
from segrecone import kaehler, ktheory
from segrecone.report import jsonable

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify_all.json"
FORMS_TOWER = (Path(__file__).parent.parent / "bench" / "reference"
               / "forms-tower.json")


def test_verify_all_matches_the_golden_report(capsys):
    code = cli.main(["verify", "all", "--nmax", "5", "--window", "3"])
    doc = json.loads(capsys.readouterr().out)
    for rec in doc["checks"]:
        del rec["elapsed"]
    assert code == 0
    assert json.dumps(doc, indent=2) + "\n" == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("table_id", cli.TABLE_IDS)
def test_table_matches_the_golden_output(capsys, table_id):
    code = cli.main(["table", table_id])
    assert code == 0
    golden = DATA / f"table_{table_id}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_forms_tower_matches_the_benchmark_reference():
    records = {}
    for module, name in ((ktheory, "compute_K4"),
                         (ktheory, "verify_K5plus_inputs"),
                         (kaehler, "omega4_cone_check")):
        result = getattr(module, name)(8)
        system, verdict = (result if isinstance(result, tuple)
                           else (None, result))
        record = {"verdict": "PASS" if verdict.ok else "FAIL",
                  "details": verdict.details, "witness": verdict.witness}
        if system is not None:
            record["dims"] = system.dims()
        records[f"{name}(8)"] = json.loads(json.dumps(jsonable(record)))
    assert records == json.loads(FORMS_TOWER.read_text(encoding="utf-8"))
