"""Record the outputs the benchmark checks every run against.

Run from the repository root on a clean checkout::

    python3 perfbench/freeze.py            # both sizes
    python3 perfbench/freeze.py --size tiny

For each size it runs one cold ``reproduce`` sweep and records the
sha256 of its output and of every unique job's result, then runs the
paper apps on their default seeds and records each job's summary.
These are the default engine's outputs at the recorded commit: the
runs check that a change leaves them bit-identical.  The simulator is
deterministic, so they change only when simulated results change.

Both are also re-run on the frozen reference engine, and every
disagreement is printed as a warning.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def freeze(size: str, root: Path) -> dict:
    args = argparse.Namespace(
        workload="sweep_cold", seed=0, seconds=0.0, trace=0, size=size, record=None,
        corrupt=False,
    )
    job = bench.Run(args, root)
    try:
        sweep = job.child(job.sweep_spec(job.fresh_dir("store")))
        if sweep is None or sweep["rc"] != 0 or sweep["job_failures"]:
            raise SystemExit(f"freeze: the {size} sweep failed: {job.notes}")
        if None in sweep["job_digests"].values():
            raise SystemExit(f"freeze: the {size} sweep left jobs without results")
        oracle = job.child(job.sweep_spec(job.fresh_dir("store"), engine="reference"))
        every_job = [[a, p] for a in job.apps_list() for p in bench.PROTOCOLS]
        apps = job.child(job.apps_spec(reference_jobs=every_job))
        if oracle is None or apps is None:
            raise SystemExit(f"freeze: a {size} pass failed: {job.notes}")
    finally:
        job.close()
    if oracle["stdout_sha256"] != sweep["stdout_sha256"]:
        warn(f"{size} sweep: the report differs on the reference engine")
    for name in apps["reference_mismatches"]:
        warn(f"{size} paper apps {name}: the result differs on the reference engine")
    return {
        "sweep": {
            "stdout_sha256": sweep["stdout_sha256"],
            "jobs": sweep["job_digests"],
        },
        "apps": apps["jobs"],
    }


def warn(text: str) -> None:
    print(f"freeze: warning: {text}", file=sys.stderr)


def committed_src(root: Path):
    """HEAD's commit when ``src/`` matches it exactly, else None.  The
    recorded outputs depend on ``src/`` alone."""

    def git(*argv):
        try:
            out = subprocess.run(
                ("git", *argv), cwd=root, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src")
    return git("rev-parse", "HEAD") if status == "" else None


def main() -> int:
    parser = argparse.ArgumentParser(description="record the benchmark's expected outputs")
    parser.add_argument("--size", choices=sorted(bench.SIZES), action="append")
    args = parser.parse_args()
    root = Path.cwd()
    commit = committed_src(root)
    if commit is None:
        print(
            "freeze: src/ has uncommitted changes (or this is not a git "
            "checkout); refusing to record",
            file=sys.stderr,
        )
        return 3
    path = HERE / "expected.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for size in args.size or sorted(bench.SIZES):
        recorded[size] = freeze(size, root)
        recorded[size]["commit"] = commit
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
