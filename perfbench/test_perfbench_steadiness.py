"""Steadiness self-test of the benchmark.

Each workload runs twice, traced, on a short prefix of its seed-1 query list.
Every count the trace reports must repeat exactly, every output must pass its
checks, and the decided and failed shares must repeat.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SHORT = {"walk-search": 10, "reach-chase": 12, "finite-classify": 24}


def _traced_run(workload: str) -> tuple[dict, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--trace", "1", "--max-queries", str(SHORT[workload])]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[0]


def _counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count" or name.endswith(("per_node", "per_relation"))}


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_counts_repeat_and_outputs_pass(workload):
    first, header1 = _traced_run(workload)
    second, header2 = _traced_run(workload)
    for result in (first, second):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] == 3 * SHORT[workload]
    assert _counts(first) == _counts(second)
    assert any(v > 0 for v in _counts(first).values())
    shares = [re.search(r"decided_frac=(\S+) fail_frac=(\S+)", h).groups() for h in (header1, header2)]
    assert shares[0] == shares[1]
    assert shares[0][1] == "0.0000"
