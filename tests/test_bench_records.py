"""Every committed BENCH_*.json benchmark record is well formed.

A record holds the medians and quartiles of alternating parent/change pairs
of ``perfbench/run.py`` runs on one workload of BENCHMARK.json, for each of
its end-to-end metrics, and the sha256 of the reports both sides produced.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
MIN_PAIRS = 10


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_is_well_formed(path):
    record = json.loads(path.read_text())
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert record["workload"] in workloads
    assert path.name == f"BENCH_{record['workload']}.json"
    assert isinstance(record["pairs"], int) and record["pairs"] >= MIN_PAIRS
    assert re.fullmatch(r"[0-9a-f]{64}", record["report_sha256"])
    for side in ("parent", "change"):
        for metric in BENCHMARK["end_to_end"]:
            stats = record[side][metric["name"]]
            assert stats["unit"] == metric["unit"]
            assert all(isinstance(stats[k], (int, float)) for k in ("q1", "median", "q3"))
            assert stats["q1"] <= stats["median"] <= stats["q3"]
