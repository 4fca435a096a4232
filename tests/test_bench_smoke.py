"""Smoke test of the benchmark's smallest job list.

Runs every klc-confirm job once and checks its output. It is not a
performance gate: it guards the eulerseq names and outputs that
perfbench/ relies on.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def test_klc_confirm_jobs_pass_their_checks(tmp_path):
    jobs = workloads.build("klc-confirm", 0, tmp_path)
    assert jobs
    for job in jobs:
        assert job.check(job.run()) is None, job.label
