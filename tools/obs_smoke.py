#!/usr/bin/env python3
"""Observability smoke run: trace JSON and metrics CSV exports.

Runs the `axihc --example` config for 200k cycles with
`--trace-out`/`--metrics-out`. The trace must be a non-empty JSON array of
events, and the metrics CSV must start with a `cycle,` header and hold
samples.

    python3 tools/obs_smoke.py <axihc binary> <work dir>
"""
import json
import pathlib
import subprocess
import sys


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    axihc, work = argv[1], pathlib.Path(argv[2])
    work.mkdir(parents=True, exist_ok=True)
    config, trace, metrics = (work / "experiment.ini", work / "trace.json",
                              work / "metrics.csv")
    config.write_text(subprocess.run([axihc, "--example"], check=True,
                                     capture_output=True, text=True).stdout)
    done = subprocess.run(
        [axihc, str(config), "--cycles", "200000", "--trace-out", str(trace),
         "--metrics-out", str(metrics), "--sample-every", "1000"])
    if done.returncode != 0:
        sys.exit(f"traced run exited {done.returncode}")
    events = json.loads(trace.read_text())
    if not isinstance(events, list) or not events:
        sys.exit(f"{trace}: no trace events")
    rows = metrics.read_text().splitlines()
    if not rows or not rows[0].startswith("cycle,") or len(rows) < 2:
        sys.exit(f"{metrics}: expected a cycle, header and samples")
    print(f"{len(events)} trace events, {len(rows) - 1} metrics samples")


if __name__ == "__main__":
    main(sys.argv)
