#!/usr/bin/env python3
"""Audited smoke run of one example config.

Runs `axihc <config> --latency-audit --flight-out <work>/flight.jsonl` over
the config's full horizon. A nonzero exit means a WCLA bound violation (or
a config error); so does an AXI protocol violation on any HA link (the
run's `protocol:` line). Then checks that every flight record's cause
buckets sum to its latency.

    python3 tools/audit_smoke.py <axihc binary> <config.ini> <work dir>
"""
import json
import pathlib
import re
import subprocess
import sys


def main(argv):
    if len(argv) != 4:
        sys.exit(__doc__)
    axihc, config, work = argv[1], argv[2], pathlib.Path(argv[3])
    work.mkdir(parents=True, exist_ok=True)
    flight = work / "flight.jsonl"
    run = subprocess.run(
        [axihc, config, "--latency-audit", "--flight-out", str(flight)],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        sys.exit(f"{config}: audited run exited {run.returncode}")
    protocol = re.search(r"^protocol: (\d+) violations", run.stdout, re.M)
    if protocol is None:
        sys.exit(f"{config}: no protocol line in the audited run's output")
    if int(protocol.group(1)) != 0:
        sys.exit(f"{config}: {protocol.group(1)} AXI protocol violations "
                 "on the HA links")
    records = 0
    with flight.open() as lines:
        for number, line in enumerate(lines, 1):
            rec = json.loads(line)
            causes = sum(rec["cause"].values())
            if causes != rec["latency"]:
                sys.exit(f"{flight}:{number}: cause buckets sum to {causes}, "
                         f"latency is {rec['latency']}")
            records += 1
    if records == 0:
        sys.exit(f"{config}: no flight records")
    print(f"{config}: {records} flight records, cause buckets sum to latency")


if __name__ == "__main__":
    main(sys.argv)
