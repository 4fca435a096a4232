"""Smoke tests of the benchmark's job lists.

Each runs some of a workload's jobs once and checks their output. They are
not performance gates: they guard the eulerseq names and outputs that
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


def test_lc_scale_jobs_pass_their_checks(tmp_path):
    # lc-p at (3,6) and (5,4) must print exactly two PASS lines, oracles one;
    # the analyze jobs' LCs must equal references from Berlekamp-Massey and
    # lc_binary computed outside the CLI
    jobs = workloads.build("lc-scale", 0, tmp_path)
    assert sum(job.label.startswith("verify") for job in jobs) == 3
    for job in jobs:
        assert job.check(job.run()) is None, job.label


def test_gen_props_jobs_pass_their_checks(tmp_path):
    # generation at N of 6e4 to 1.8e5 with file writes and reads back
    jobs = workloads.build("gen-props", 0, tmp_path)
    assert jobs
    for job in jobs:
        assert job.check(job.run()) is None, job.label
