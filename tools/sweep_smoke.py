#!/usr/bin/env python3
"""Sweep smoke run of one sweep spec: cache, shards and reports.

Runs `axihc <spec> --sweep` cold into a fresh cache under <work dir>, then
warm. Every warm cell must be a cache hit and the rows byte-identical. The
sorted union of `--sweep-shard 0/2` and `1/2` (uncached) must equal the
unsharded rows. The two shards then run again as concurrent processes into
one fresh cache directory, each writing its own log; an unsharded run
against it must hit every cell with the cold rows. Finally renders
`--sweep-report`/`--sweep-report-json` from the saved rows.

    python3 tools/sweep_smoke.py <axihc binary> <spec.ini> <work dir>
"""
import json
import pathlib
import re
import shutil
import subprocess
import sys


def start(axihc, spec, out, *flags):
    return subprocess.Popen(
        [axihc, spec, "--sweep", "--sweep-deterministic", "--sweep-out",
         str(out), *flags], stderr=subprocess.PIPE, text=True)


def finish(spec, proc, out):
    _, err = proc.communicate()
    sys.stderr.write(err)
    if proc.returncode != 0:
        sys.exit(f"{spec}: sweep {' '.join(proc.args[2:])} exited "
                 f"{proc.returncode}")
    counts = re.search(r"(\d+) executed, (\d+) cache hits", err)
    if counts is None:
        sys.exit(f"{spec}: no sweep summary on stderr")
    return out.read_text().splitlines(), int(counts.group(2))


def sweep(axihc, spec, out, *flags):
    return finish(spec, start(axihc, spec, out, *flags), out)


def main(argv):
    if len(argv) != 4:
        sys.exit(__doc__)
    axihc, spec, work = argv[1], argv[2], pathlib.Path(argv[3])
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cache = str(work / "cache")

    cold, _ = sweep(axihc, spec, work / "cold.jsonl", "--sweep-cache", cache)
    warm, hits = sweep(axihc, spec, work / "warm.jsonl", "--sweep-cache",
                       cache)
    if not cold:
        sys.exit(f"{spec}: the sweep produced no rows")
    if hits != len(cold):
        sys.exit(f"{spec}: warm run hit the cache for {hits} of "
                 f"{len(cold)} cells")
    if warm != cold:
        sys.exit(f"{spec}: cached rerun rows differ from the cold run")

    shards = []
    for i in range(2):
        rows, _ = sweep(axihc, spec, work / f"shard{i}.jsonl",
                        "--sweep-no-cache", "--sweep-shard", f"{i}/2")
        shards += rows
    shards.sort(key=lambda line: json.loads(line)["cell"])
    if shards != cold:
        sys.exit(f"{spec}: the union of 2 shards differs from the "
                 "unsharded rows")

    shared = str(work / "shared-cache")
    procs = [(start(axihc, spec, work / f"shared{i}.jsonl", "--sweep-cache",
                    shared, "--sweep-shard", f"{i}/2"),
              work / f"shared{i}.jsonl") for i in range(2)]
    for proc, out in procs:
        finish(spec, proc, out)
    rows, shared_hits = sweep(axihc, spec, work / "shared.jsonl",
                              "--sweep-cache", shared)
    if shared_hits != len(cold):
        sys.exit(f"{spec}: after two concurrent shards the unsharded run "
                 f"hit the cache for {shared_hits} of {len(cold)} cells")
    if rows != cold:
        sys.exit(f"{spec}: rows from the shards' cache differ from the "
                 "cold run")

    md, js = work / "report.md", work / "report.json"
    done = subprocess.run([axihc, str(work / "cold.jsonl"), "--sweep-report",
                           str(md), "--sweep-report-json", str(js)])
    if done.returncode != 0:
        sys.exit(f"{spec}: sweep report exited {done.returncode}")
    report = json.loads(js.read_text())
    if report.get("rows") != len(cold) or not md.read_text().strip():
        sys.exit(f"{spec}: the report does not cover the {len(cold)} rows")
    print(f"{spec}: {len(cold)} rows, {hits} warm cache hits, shard union "
          "equals the unsharded rows, concurrent shards fill one cache, "
          "report rendered")


if __name__ == "__main__":
    main(sys.argv)
