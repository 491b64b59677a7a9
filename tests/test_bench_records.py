"""The committed benchmark records keep the format a speedup claim is read from.

Every `BENCH_<n>.json` with n >= 17 compares a parent and a change checkout
with `perfbench/run.py`.  Each must hold, for every workload that
`BENCHMARK.json` declares: ten seeds with the side that runs first
alternating (the parent first on odd seeds), ten values per side and metric
whose median is the recorded one, both sides correct with no failed query,
and one traced seed-1 block.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = sorted(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
METRICS = sorted(m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"])
SIDES = ("parent", "change")


def records():
    for path in sorted(ROOT.glob("BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) >= 17:
            yield path


RECORDS = list(records())


def test_the_records_are_found():
    assert [p.name for p in RECORDS][:1] == ["BENCH_17.json"]


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_record_has_ten_alternated_pairs_per_workload(path):
    record = json.loads(path.read_text())
    assert sorted(record["workloads"]) == WORKLOADS
    for name, workload in record["workloads"].items():
        seeds = workload["seeds"]
        assert seeds == list(range(1, 11)), name
        assert workload["first_side"] == {str(s): "parent" if s % 2 else "change" for s in seeds}, name
        for side in SIDES:
            assert workload["correct"][side] is True, (name, side)
            assert workload["failed"][side] == 0, (name, side)
        assert sorted(workload["metrics"]) == METRICS, name
        for metric, sides in workload["metrics"].items():
            for side in SIDES:
                values = sides[side]["values"]
                assert len(values) == len(seeds), (name, metric, side)
                assert sides[side]["median"] == statistics.median(values), (name, metric, side)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_record_has_one_traced_block_per_workload(path):
    traced = json.loads(path.read_text())["traced_seed1"]
    assert sorted(traced) == WORKLOADS
    for name, block in traced.items():
        assert block["command"] == f"python3 perfbench/run.py --workload {name} --seed 1 --trace 1"
        for side in SIDES:
            assert block[side], (name, side)
