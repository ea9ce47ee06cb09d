#!/usr/bin/env python3
"""clang-tidy runner for the axihc static-analysis job (source-level checks).

Runs clang-tidy (profile: the repo's .clang-tidy) over every src/ source in
compile_commands.json and diffs the warnings against the checked-in baseline
(tools/lint/clang_tidy_baseline.txt). Only NEW warnings fail the run, so the
wall can be adopted incrementally: existing debt is frozen in the baseline
and burned down over time, while regressions are caught immediately.

  python3 tools/lint/run_clang_tidy.py --build build [--update-baseline]

Exit codes: 0 clean (or clang-tidy unavailable — the tool degrades to a
notice so uninstrumented dev machines aren't blocked; CI installs it),
1 new warnings, 2 setup error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import shutil
import subprocess
import sys

# warning line:  /abs/path/file.cpp:12:3: warning: message [check-name]
WARNING_RE = re.compile(r"^(.*?):(\d+):\d+: warning: (.*?) (\[[\w.,-]+\])$")


def normalize(path: str, root: pathlib.Path) -> str:
    p = pathlib.Path(path)
    try:
        return str(p.resolve().relative_to(root))
    except ValueError:
        return str(p)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build",
                        help="build dir containing compile_commands.json")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with current findings")
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parents[2]
    baseline_path = root / "tools" / "lint" / "clang_tidy_baseline.txt"

    tidy = shutil.which("clang-tidy")
    if tidy is None:
        print("run_clang_tidy: clang-tidy not installed; skipping "
              "(the CI static-analysis job runs it)")
        return 0

    ccj = root / args.build / "compile_commands.json"
    if not ccj.exists():
        print(f"run_clang_tidy: {ccj} not found — configure with CMake "
              f"first (compile_commands export is always on)",
              file=sys.stderr)
        return 2

    sources = sorted(
        {e["file"] for e in json.loads(ccj.read_text())
         if "/src/" in e["file"] and e["file"].endswith(".cpp")})
    print(f"run_clang_tidy: {len(sources)} src/ files, profile "
          f"{root / '.clang-tidy'}")

    findings: set[str] = set()
    for i in range(0, len(sources), args.jobs):
        batch = sources[i:i + args.jobs]
        procs = [subprocess.Popen(
            [tidy, "-p", str(ccj.parent), "--quiet", s],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            for s in batch]
        for proc in procs:
            out, _ = proc.communicate()
            for line in out.splitlines():
                m = WARNING_RE.match(line)
                if m:
                    # Baseline entries carry no line numbers: adding a line
                    # above old debt must not read as a regression.
                    findings.add(f"{normalize(m.group(1), root)}: "
                                 f"{m.group(3)} {m.group(4)}")

    if args.update_baseline:
        baseline_path.write_text(
            "\n".join(sorted(findings)) + ("\n" if findings else ""))
        print(f"run_clang_tidy: wrote {len(findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    baseline = set()
    if baseline_path.exists():
        baseline = {l for l in baseline_path.read_text().splitlines()
                    if l and not l.startswith("#")}

    new = sorted(findings - baseline)
    fixed = sorted(baseline - findings)
    for f in new:
        print(f"NEW: {f}")
    if fixed:
        print(f"run_clang_tidy: {len(fixed)} baseline entr(ies) no longer "
              f"fire — consider --update-baseline to lock in the progress")
    print(f"run_clang_tidy: {len(findings)} finding(s), "
          f"{len(new)} new vs baseline")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
