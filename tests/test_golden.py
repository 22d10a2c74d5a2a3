"""Golden report: `verify all` at the default config, byte for byte.

`tests/data/verify_all.json` is the JSON report of
`segrecone verify all --nmax 5 --window 3` with every `elapsed` field
removed (elapsed time is outside the determinism contract).  A change that
is meant to alter the report regenerates the file and says why; any other
difference is a regression.
"""
import json
from pathlib import Path

import segrecone.cli as cli

GOLDEN = Path(__file__).parent / "data" / "verify_all.json"


def test_verify_all_matches_the_golden_report(capsys):
    code = cli.main(["verify", "all", "--nmax", "5", "--window", "3"])
    doc = json.loads(capsys.readouterr().out)
    for rec in doc["checks"]:
        del rec["elapsed"]
    assert code == 0
    assert json.dumps(doc, indent=2) + "\n" == GOLDEN.read_text(encoding="utf-8")
