"""Every seed-1 benchmark query of each workload against its golden summary.

The benchmark digests the reprs of its results (branch summaries print their
cover frozensets, whose order depends on how each set was built; reach
queries print regions and CLI stdout), so a change that keeps every verdict
can still fail the benchmark's output check.  This replays all rounds of the
committed seed in process and compares each summary with
`perfbench/golden/<workload>.json`; it only reads `perfbench/`.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))  # appended: perfbench/trace.py must not shadow the stdlib

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_one_query_matches_the_golden_file(monkeypatch, workload):
    monkeypatch.chdir(ROOT)  # the cli queries name their documents relative to the root
    golden = checks.load_golden(workload)
    docs = workloads.load_documents(workload)
    seen, mismatches = [], []
    for r in range(workloads.ROUNDS[workload]):
        for q in workloads.build_round(workload, checks.GOLDEN_SEED, r, docs):
            seen.append(q.qid)
            summary = checks.summarize(q, workloads.run_query(q, docs))
            if summary != golden[q.qid]:
                mismatches.append((q.qid, q.kind, summary, golden[q.qid]))
    assert sorted(seen) == sorted(golden)
    assert not mismatches, mismatches[:5]
