#!/usr/bin/env python3
"""Fault-campaign smoke run of one campaign spec.

Runs `axihc <spec> --campaign` with one worker thread and with four. Both
must exit 0 (every run converged and conserved its budgets) and write
byte-identical JSON lines. Then checks the rows: one per run, each converged
and budget-conserved, and at least half of them exercised the recovery loop.

    python3 tools/campaign_smoke.py <axihc binary> <spec.ini> <work dir>
"""
import json
import os
import pathlib
import subprocess
import sys


def run(axihc, spec, out, threads):
    env = dict(os.environ, AXIHC_BENCH_THREADS=str(threads))
    done = subprocess.run(
        [axihc, spec, "--campaign", "--campaign-out", str(out)], env=env)
    if done.returncode != 0:
        sys.exit(f"{spec}: campaign with {threads} thread(s) exited "
                 f"{done.returncode}")
    return out.read_bytes()


def main(argv):
    if len(argv) != 4:
        sys.exit(__doc__)
    axihc, spec, work = argv[1], argv[2], pathlib.Path(argv[3])
    work.mkdir(parents=True, exist_ok=True)
    serial = run(axihc, spec, work / "campaign_t1.jsonl", 1)
    parallel = run(axihc, spec, work / "campaign_t4.jsonl", 4)
    if serial != parallel:
        sys.exit(f"{spec}: campaign output differs between 1 and 4 threads")

    lines = serial.decode().splitlines()
    header, rows = json.loads(lines[0]), [json.loads(l) for l in lines[1:]]
    runs = header["campaign"]["runs"]
    if len(rows) != runs:
        sys.exit(f"{spec}: expected {runs} rows, got {len(rows)}")
    bad = [i for i, r in enumerate(rows)
           if not (r["converged"] and r["budget_conserved"])]
    if bad:
        sys.exit(f"{spec}: runs {bad} did not converge or conserve budgets")
    # The smoke spec is tuned so most runs reach the FSM; a collapse here
    # means detection or the campaign generator regressed.
    exercised = sum(1 for r in rows if r["recoveries"])
    if exercised < len(rows) // 2:
        sys.exit(f"{spec}: only {exercised} of {len(rows)} runs exercised "
                 "the recovery loop")
    print(f"{spec}: {len(rows)} runs, identical at 1 and 4 threads, "
          f"{exercised} exercised the recovery loop")


if __name__ == "__main__":
    main(sys.argv)
