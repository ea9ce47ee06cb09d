#!/usr/bin/env python3
"""cppcheck runner for the axihc static-analysis job (source-level checks).

Runs cppcheck (warning/performance/portability profiles) over src/ and diffs
the findings against the checked-in baseline
(tools/lint/cppcheck_baseline.txt). Only NEW findings fail the run — the
same freeze-the-debt model as run_clang_tidy.py: existing findings are
locked in the baseline and burned down over time, while regressions are
caught immediately.

Baseline entries carry no line numbers (adding a line above old debt must
not read as a regression): `path: (severity) message [id]`.

  python3 tools/lint/run_cppcheck.py [--update-baseline]

Exit codes: 0 clean (or cppcheck unavailable — the tool degrades to a
notice so uninstrumented dev machines aren't blocked; CI installs it),
1 new findings, 2 setup error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import subprocess
import sys

# finding line (via --template):  path|line|severity|id|message
FINDING_RE = re.compile(r"^(.*?)\|(\d+)\|(\w+)\|([\w-]+)\|(.*)$")

# Noise that a whole-program checker cannot decide without the full build
# graph; the compiler warning wall (-Wall -Wextra, AXIHC_WERROR in CI) and
# clang-tidy already cover the real versions of these.
SUPPRESS = [
    "missingIncludeSystem",   # no stdlib headers on the cppcheck path
    "unusedFunction",         # library entry points look unused per-TU
    "unmatchedSuppression",
]


def normalize(path: str, root: pathlib.Path) -> str:
    p = pathlib.Path(path)
    try:
        return str(p.resolve().relative_to(root))
    except ValueError:
        return str(p)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with current findings")
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parents[2]
    baseline_path = root / "tools" / "lint" / "cppcheck_baseline.txt"

    cppcheck = shutil.which("cppcheck")
    if cppcheck is None:
        print("run_cppcheck: cppcheck not installed; skipping "
              "(the CI static-analysis job runs it)")
        return 0

    src = root / "src"
    if not src.is_dir():
        print(f"run_cppcheck: no src/ under {root}", file=sys.stderr)
        return 2

    cmd = [
        cppcheck,
        "--enable=warning,performance,portability",
        "--std=c++17",
        "--inline-suppr",
        f"-j{args.jobs}",
        f"-I{src}",
        "--template={file}|{line}|{severity}|{id}|{message}",
        "--quiet",
    ]
    cmd += [f"--suppress={s}" for s in SUPPRESS]
    cmd.append(str(src))
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)

    findings: set[str] = set()
    for line in proc.stderr.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add(f"{normalize(m.group(1), root)}: ({m.group(3)}) "
                         f"{m.group(5)} [{m.group(4)}]")

    if args.update_baseline:
        baseline_path.write_text(
            "\n".join(sorted(findings)) + ("\n" if findings else ""))
        print(f"run_cppcheck: wrote {len(findings)} finding(s) to "
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
        print(f"run_cppcheck: {len(fixed)} baseline entr(ies) no longer "
              f"fire — consider --update-baseline to lock in the progress")
    print(f"run_cppcheck: {len(findings)} finding(s), "
          f"{len(new)} new vs baseline")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
