#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the axihc simulator.

    python3 perfbench/run.py --workload fig5_hc90 --seed 1 --seconds 30 --trace 0

Builds the perfbench program (CMakeLists.txt beside this file) into .bench_build/,
generates the workload's input from a checked-in example plus --seed (and the
frozen reference build's input from its copy under reference/inputs), runs
the program and checks its outputs. Untraced values are the build's speed
relative to the reference's, paired repetition by repetition. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics (tracing off), --trace 1 the per-layer metrics of a
separate traced run. The lines before it record the host, the build, the
sample counts and spreads, and a fingerprint of the simulated behaviour.
README.md defines every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD_DIR / "perfbench"

# The benchmark program must end within this many seconds. A first build
# in a fresh checkout may take up to BUILD_S more.
RUN_S = 165.0
BUILD_S = 700.0
WORKERS = 2
# Memory rows are 2 KiB (MemoryControllerConfig::row_bytes_log2 = 11); the
# seed moves each HA buffer by a whole number of rows, up to this many.
ROW_BYTES = 2048
MAX_ROW_SHIFT = 256
# Repetition sizes, by --trace. Short untraced repetitions let a run pair
# many of them with the reference's. Traced runs are full size: the fig5
# ablations time one run each, and 200 campaign runs keep ten systems beyond
# p95.
FIG5_CYCLES = {0: 4_000_000, 1: 40_000_000}
CAMPAIGN_RUNS = {0: 16, 1: 200}
# Untraced sweep repetitions take one of this many shards of the cells in
# turn (perfbench's kSweepShards); 9 is coprime to every pareto1k axis
# length, so each shard holds every axis value.
SWEEP_SHARDS = 9

# The frozen reference build's speed on the host that defined the benchmark
# (README.md): each paired ratio scales these to the reported values.
REFERENCE = {
    "fig5_hc90": {"sim_mcps": 23.4, "cells_per_s": 5.84, "setup_s": 1.89e-5},
    "pareto1k_sweep": {"sim_mcps": 11.3, "cells_per_s": 565.0, "setup_s": 0.0795},
    "campaign_faults": {"sim_mcps": 7.49, "cells_per_s": 125.0, "setup_s": 3.67e-4},
}

# Default HA buffer bases (src/config/system_builder.cpp add_ha), per port.
DMA_READ_BASE = 0x1000_0000
DMA_WRITE_BASE = 0x2000_0000
TRAFFIC_BASE = 0x4000_0000

# Simulated-statistics fields that must not depend on tracing, fast-forward
# or the latency audit. The state digest is excluded for the audit: wiring
# the audit also adds the APM probe to the digest composition.
SIM_COUNT_FIELDS = ("cycles", "ha", "frames", "fps", "subtxns", "recharges",
                    "mem_busy", "row_hits", "row_misses")

HC_CAUSES = ("efifo_queue", "budget_wait", "arbitration", "backpressure")


def splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & (2**64 - 1)
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return state, z ^ (z >> 31)


class SeedStream:
    def __init__(self, seed):
        self.state = seed

    def draw(self, bound):
        self.state, z = splitmix64(self.state)
        return z % bound

    def row_offset(self):
        return self.draw(MAX_ROW_SHIFT) * ROW_BYTES


def set_key(text, section, key, value):
    """Sets `key = value` in INI `section`, replacing the first existing
    assignment or appending one at the end of the section."""
    lines = text.splitlines()
    start = next((i for i, l in enumerate(lines) if l.strip() == f"[{section}]"), None)
    if start is None:
        raise SystemExit(f"perfbench: example has no [{section}] section")
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].strip().startswith("[")), len(lines))
    for i in range(start + 1, end):
        if lines[i].split("=", 1)[0].strip() == key and "=" in lines[i]:
            lines[i] = f"{key} = {value}"
            return "\n".join(lines) + "\n"
    last = max((i for i in range(start, end) if lines[i].strip()), default=start)
    lines.insert(last + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


def port_base(base, port, offset):
    return hex(base + (port << 26) + offset)


def fig5_input(text, seed, trace):
    rng = SeedStream(seed)
    text = set_key(text, "system", "cycles", FIG5_CYCLES[trace])
    # The DNN's buffers have no config key; the DMA's move.
    text = set_key(text, "ha1", "read_base", port_base(DMA_READ_BASE, 1, rng.row_offset()))
    return set_key(text, "ha1", "write_base", port_base(DMA_WRITE_BASE, 1, rng.row_offset()))


def sweep_input(text, seed, trace):
    rng = SeedStream(seed)
    for port in (0, 1):
        text = set_key(text, f"ha{port}", "base", port_base(TRAFFIC_BASE, port, rng.row_offset()))
    return text


def campaign_input(text, seed, trace):
    rng = SeedStream(seed)
    text = set_key(text, "ha0", "read_base", port_base(DMA_READ_BASE, 0, rng.row_offset()))
    text = set_key(text, "ha0", "write_base", port_base(DMA_WRITE_BASE, 0, rng.row_offset()))
    text = set_key(text, "ha1", "base", port_base(TRAFFIC_BASE, 1, rng.row_offset()))
    text = set_key(text, "campaign", "runs", CAMPAIGN_RUNS[trace])
    return set_key(text, "campaign", "seed", 1 + rng.draw(2**31))


# Per workload: its example under examples/ (the reference's frozen copy has
# the same file name under reference/inputs/) and how the seed changes it.
INPUTS = {
    "fig5_hc90": ("configs/fig5_hc90.ini", fig5_input),
    "pareto1k_sweep": ("sweeps/pareto1k.ini", sweep_input),
    "campaign_faults": ("configs/campaign_smoke.ini", campaign_input),
}


def make_input(workload, seed, trace, reference=False):
    example, generate = INPUTS[workload]
    path = (HERE / "reference" / "inputs" / Path(example).name if reference
            else ROOT / "examples" / example)
    return generate(path.read_text(), seed, trace)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources next to the benchmark (src/ is missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_S)
        except subprocess.TimeoutExpired:
            fail("build exceeded the time limit")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed")


def load_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def combined_digest(digests):
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode() + b"\n")
    return h.hexdigest()[:16]


def sim_counts(stats):
    return {k: stats.get(k) for k in SIM_COUNT_FIELDS}


class Checks:
    """Correctness bookkeeping: one entry per simulated system."""

    def __init__(self):
        self.failures = {}
        self.attempted = 0

    def system(self, sim_id, problems):
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failures[sim_id] = problems

    @property
    def failed(self):
        return len(self.failures)


def stat_problems(stats, base, *, compare_digest=True, dnn=False):
    problems = []
    if compare_digest and stats["digest"] != base["digest"]:
        problems.append(f"state digest {stats['digest']} != {base['digest']}")
    if sim_counts(stats) != sim_counts(base):
        problems.append("simulated counts differ")
    if dnn and stats.get("frames", 0) < 1:
        problems.append("no DNN frame completed")
    if dnn and sum(h["failed"] for h in stats["ha"]) != 0:
        problems.append("failed transactions")
    return problems


def ablation_checks(checks, ablation_stats):
    """Per ablated system: audit without fast-forward reproduces the state
    digest, and dropping the audit leaves every simulated count unchanged."""
    by_id = {s["id"]: s for s in ablation_stats}
    for sid, base in by_id.items():
        if not sid.endswith(":audit_ff"):
            continue
        stem = sid[: -len(":audit_ff")]
        checks.system(stem + ":ablation", [
            *stat_problems(by_id[stem + ":audit_noff"], base),
            *stat_problems(by_id[stem + ":noaudit_ff"], base, compare_digest=False),
        ])


# --- workloads --------------------------------------------------------------

def fig5_reduce(result, out, trace, checks):
    run = result["run"]
    stats = load_lines(out / "stats.jsonl")
    base = stats[0]
    for s in stats:
        checks.system(s["id"], stat_problems(
            s, base, compare_digest=not s["id"].endswith("audit_on"), dnn=True))
    fingerprint = {"digest": base["digest"], **sim_counts(base),
                   "critical_read_max_cycles": base["ha"][0]["read_max"]}
    if not trace:
        n = len(run["wall_s"])
        return fingerprint, paired_values(result, [base["cycles"]] * n, [1] * n)
    spans = load_lines(out / "spans.jsonl")
    traced = [s for s in spans if s["req"] == "fig5:traced"]
    a = run["ablation"]
    timed = [s for s in stats if s["id"] == "fig5:timed"]
    layers = sim_layers(traced, traced, timed, [s for s in stats if s["id"] == "fig5:audit_on"])
    layers.update(host_layers(run))
    layers.update({
        "sim.ff_gain": (a["ff_off_s"] / a["base_s"], 1),
        "obs.audit_overhead": (a["audit_on_s"] / a["base_s"] - 1.0, 1),
        "sim_dnn_fps": (base["fps"], 1),
        "sim_critical_read_max_cycles": (base["ha"][0]["read_max"], 1),
    })
    return fingerprint, layers


def sweep_rows_checks(checks, cold, warm, reference, rep):
    for c, w, ref in zip(cold, warm, reference):
        problems = []
        if "error" in c:
            problems.append("error row: " + c["error"])
        if c.get("bound_violations", 0) != 0:
            problems.append(f"{c['bound_violations']} bound violations")
        if c.get("state_digest") != ref.get("state_digest"):
            problems.append("state digest differs from the first repetition")
        problems.append(metrics.warm_row_mismatch(c, w))
        checks.system(f"sweep:{c['cell']}:rep{rep}", problems)
    if len(cold) != len(warm) or len(cold) != len(reference):
        checks.system(f"sweep:rep{rep}", ["row counts differ"])


def sweep_fingerprint(rows):
    simulated = [r for r in rows if "state_digest" in r]
    return {
        "digest": combined_digest(r["config"] + r.get("state_digest", "-") for r in rows),
        "cells": len(rows),
        "simulated": len(simulated),
        "disproved": sum("prove_verdict" in r and "cycles" not in r for r in rows),
        "cycles": sum(r["cycles"] for r in simulated),
        "bytes": sum(r["total_bytes"] for r in simulated),
        "failed_txns": sum(h["failed"] for r in simulated for h in r["ha"]),
    }


def sweep_reduce(result, out, trace, checks):
    """Untraced repetition i sweeps shard i mod SWEEP_SHARDS and is checked
    against the first repetition of that shard; the traced run sweeps every
    cell once."""
    run = result["run"]
    shards = 1 if trace else SWEEP_SHARDS
    reps = len(run["wall_s"]) if not trace else 1
    firsts = [load_lines(out / f"cold{rep}.jsonl") for rep in range(min(shards, reps))]
    cycles, cells = [], []
    for rep in range(reps):
        cold = load_lines(out / f"cold{rep}.jsonl")
        warm = load_lines(out / f"warm{rep}.jsonl")
        sweep_rows_checks(checks, cold, warm, firsts[rep % shards], rep)
        cycles.append(sum(r.get("cycles", 0) for r in cold))
        cells.append(len(cold))
    reference = sorted((r for rows in firsts for r in rows), key=lambda r: r["cell"])
    fingerprint = sweep_fingerprint(reference)
    if not trace:
        return fingerprint, paired_values(result, cycles, cells)

    stats = load_lines(out / "stats.jsonl")
    replayed = {s["id"]: s for s in stats}
    for row in reference:
        sid = f"sweep:{row['cell']}"
        got = replayed.get(sid, {})
        want = row.get("state_digest")
        checks.system(sid + ":replay", [] if got.get("digest") == want or (
            want is None and "digest" not in got) else [
            f"replayed digest {got.get('digest')} != row {want}"])
    ablation = load_lines(out / "ablation.jsonl")
    ablation_checks(checks, ablation)

    spans = load_lines(out / "spans.jsonl")
    replay = replay_spans(spans, "sweep.replay")
    simulated = [s for s in stats if "digest" in s]
    layers = sim_layers(replay, spans, simulated, simulated)
    cells = len(reference)
    walls_ms = [r["wall_ms"] for r in reference]
    tail = metrics.tail_percentile(len(walls_ms))
    layers.update(host_layers(run))
    layers.update(ablation_layers(run["ablation"]))
    layers.update({
        "config.digest_us": span_median_us(replay, "config.digest"),
        "sweep.expand_us": span_median_us(replay, "sweep.expand"),
        "prove.screen_us": span_median_us(replay, "prove.screen"),
        "sweep.cell_ms_p50": (metrics.percentile(walls_ms, 50), len(walls_ms)),
        "sweep.cell_ms_p99": (metrics.percentile(walls_ms, tail), len(walls_ms), tail),
        "jobs.busy_frac": (sum(walls_ms) / (run["cold_s"] * 1000.0 * result["workers"]),
                           len(walls_ms)),
        "sweep.cache_hit_us": (run["warm_s"] / cells * 1e6, cells),
        "cached_cells_per_s": (cells / run["warm_s"], cells),
        "sim_critical_read_max_cycles": (max(s["ha"][0]["read_max"] for s in simulated),
                                         len(simulated)),
    })
    return fingerprint, layers


def campaign_fingerprint(lines):
    header, rows = lines[0], lines[1:]
    return {
        "digest": combined_digest([header["baseline"]["digest"]] + [r["digest"] for r in rows]),
        "runs": len(rows),
        "campaign_seed": header["campaign"]["seed"],
        "recoveries": sum(r["recoveries"] for r in rows),
        "escalations": sum(r["escalations"] for r in rows),
        "demotions": sum(r["demotions"] for r in rows),
        "audit_txns": sum(r["audit_txns"] for r in rows),
    }


def campaign_row_checks(checks, lines, reference, tag):
    header = lines[0]
    checks.system(f"campaign:baseline:{tag}", [] if header == reference[0] else [
        "header differs from the first repetition"])
    for row, ref in zip(lines[1:], reference[1:]):
        problems = []
        if not row["converged"]:
            problems.append("recovery did not converge")
        if not row["budget_conserved"]:
            problems.append("budget conservation violated")
        if row != ref:
            problems.append("row differs from the first repetition")
        checks.system(f"campaign:{row['run']}:{tag}", problems)
    if len(lines) != len(reference):
        checks.system(f"campaign:{tag}", ["row counts differ"])


def campaign_reduce(result, out, trace, checks):
    run = result["run"]
    reference_text = (out / "campaign0.jsonl").read_text()
    reference = load_lines(out / "campaign0.jsonl")
    reps = len(run["wall_s"]) if not trace else 1
    for rep in range(reps):
        campaign_row_checks(checks, load_lines(out / f"campaign{rep}.jsonl"),
                            reference, f"rep{rep}")
    if not all(run["ok"]):
        checks.system("campaign:ok", ["CampaignOutput::ok() is false"])
    fingerprint = campaign_fingerprint(reference)
    systems = len(reference)  # the baseline plus every run
    cycles = systems * reference[0]["campaign"]["cycles"]
    if not trace:
        n = len(run["wall_s"])
        return fingerprint, paired_values(result, [cycles] * n, [systems] * n)

    traced_text = (out / "campaign_traced.jsonl").read_text()
    checks.system("campaign:traced_output", [] if traced_text == reference_text else [
        "traced run_campaign output is not byte-identical to the timed one"])
    stats = load_lines(out / "stats.jsonl")
    replayed = {s["id"]: s["digest"] for s in stats}
    want = {"campaign:baseline": reference[0]["baseline"]["digest"]}
    want.update({f"campaign:{r['run']}": r["digest"] for r in reference[1:]})
    for sid, digest in want.items():
        checks.system(sid + ":replay", [] if replayed.get(sid) == digest else [
            f"replayed digest {replayed.get(sid)} != row {digest}"])
    ablation_checks(checks, load_lines(out / "ablation.jsonl"))

    spans = load_lines(out / "spans.jsonl")
    replay = replay_spans(spans, "campaign.replay")
    layers = sim_layers(replay, spans, stats, stats)
    run_ms = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in replay if s["name"] == "campaign.run"]
    root = next(s for s in replay if s["name"] == "campaign.replay")
    tail = metrics.tail_percentile(len(run_ms))
    rows = reference[1:]
    recoveries = sum(r["recoveries"] for r in rows)
    layers.update(host_layers(run))
    layers.update(ablation_layers(run["ablation"]))
    layers.update({
        "campaign.run_ms_p50": (metrics.percentile(run_ms, 50), len(run_ms)),
        "campaign.run_ms_p95": (metrics.percentile(run_ms, tail), len(run_ms), tail),
        "jobs.busy_frac": (sum(run_ms) / ((root["end_ns"] - root["start_ns"]) / 1e6
                                          * result["workers"]), len(run_ms)),
        "campaign.recoveries": (recoveries, len(rows)),
        "campaign.mttr_cycles": (sum(r["mttr_cycles"] * r["recoveries"] for r in rows)
                                 / recoveries if recoveries else 0.0, recoveries),
        "sim_critical_read_max_cycles": (max(s["ha"][0]["read_max"] for s in stats), len(stats)),
    })
    return fingerprint, layers


REDUCE = {
    "fig5_hc90": fig5_reduce,
    "pareto1k_sweep": sweep_reduce,
    "campaign_faults": campaign_reduce,
}


# --- end-to-end values -------------------------------------------------------

def paired_values(result, cycles, cells):
    """End-to-end samples of an untraced run, one per pair of the build under
    test and the reference (perfbench.cpp `paired`): the build's speed over
    the reference's in the same pair, times the reference's speed on the
    defining host. `cycles` and `cells` give the build's simulated work per
    repetition. Also returns the raw speeds of both builds for the record."""
    run = result["run"]
    ref = REFERENCE[result["workload"]]
    walls, ref_walls = run["wall_s"], run["ref_wall_s"]
    mcps = [c / w / 1e6 for c, w in zip(cycles, walls)]
    ref_mcps = [c / w / 1e6 for c, w in zip(run["ref_cycles"], ref_walls)]
    cps = [c / w for c, w in zip(cells, walls)]
    ref_cps = [c / w for c, w in zip(run["ref_cells"], ref_walls)]
    return {
        "sim_mcps": [ref["sim_mcps"] * a / b for a, b in zip(mcps, ref_mcps)],
        "cells_per_s": [ref["cells_per_s"] * a / b for a, b in zip(cps, ref_cps)],
        "setup_s": [ref["setup_s"] * a / b
                    for a, b in zip(run["setup_s"], run["ref_setup_s"])],
        "raw": {
            "sim_mcps": statistics.median(mcps),
            "ref_sim_mcps": statistics.median(ref_mcps),
            "cells_per_s": statistics.median(cps),
            "ref_cells_per_s": statistics.median(ref_cps),
            "setup_s": statistics.median(run["setup_s"]),
            "ref_setup_s": statistics.median(run["ref_setup_s"]),
        },
    }


# --- per-layer helpers ------------------------------------------------------

def replay_spans(spans, root_name):
    """The spans of the traced replay: its root and everything below it."""
    root = next(s for s in spans if s["name"] == root_name)
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(by_parent.get(s["id"], []))
    return out


def host_layers(run):
    """Diagnostics of a traced run: CPU seconds of its untraced pass, and
    the tracing overhead with host noise included."""
    return {
        "host.cpu_s": (run["cpu_s"], 1),
        "trace.overhead_frac": (run["traced_wall_s"] / run["untraced_wall_s"] - 1.0, 1),
    }


def ablation_layers(a):
    """Fast-forward gain and audit overhead of a sweep or campaign ablation,
    whose base is what those paths run: audit and fast-forward on."""
    return {
        "sim.ff_gain": (a["audit_noff_s"] / a["audit_ff_s"], a["systems"]),
        "obs.audit_overhead": (a["audit_ff_s"] / a["noaudit_ff_s"] - 1.0, a["systems"]),
    }


def span_median_us(spans, name):
    d = [(s["end_ns"] - s["start_ns"]) / 1e3 for s in spans if s["name"] == name]
    return (statistics.median(d), len(d)) if d else (0.0, 0)


def sim_layers(spans, parse_spans, systems, audited):
    """Layer metrics shared by every workload: build/run/digest `spans`, the
    config.parse span among `parse_spans`, simulated work counts of
    `systems`, and the latency-cause split of the `audited` systems."""
    self_ns = metrics.self_times(spans)
    run_ns = sum(self_ns[s["id"]] for s in spans if s["name"] == "sim.run")
    parse = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in parse_spans
             if s["name"] == "config.parse"]
    txns = sum(h["txns"] for s in systems for h in s["ha"])
    cycles = sum(s["cycles"] for s in systems)
    hits = sum(s["row_hits"] for s in systems)
    accesses = hits + sum(s["row_misses"] for s in systems)
    causes = {}
    for s in audited:
        for name, v in s.get("causes", {}).items():
            causes[name] = causes.get(name, 0.0) + v
    cause_total = sum(causes.values())
    frac = lambda name: (causes.get(name, 0.0) / cause_total if cause_total else 0.0,
                         len(audited))
    n = len(systems)
    layers = {
        "config.parse_ms": (statistics.median(parse) if parse else 0.0, len(parse)),
        "config.build_us": span_median_us(spans, "config.build"),
        "sim.run_ms": (run_ns / 1e6, sum(s["name"] == "sim.run" for s in spans)),
        "sim.host_ns_per_txn": (run_ns / txns if txns else 0.0, n),
        "sim.digest_us": span_median_us(spans, "sim.digest"),
        "sim.cycles": (cycles, n),
        "ha.txns": (txns, n),
        "ha.bytes": (sum(h["bytes"] for s in systems for h in s["ha"]), n),
        "ha.failed": (sum(h["failed"] for s in systems for h in s["ha"]), n),
        "hyperconnect.subtxns": (sum(s.get("subtxns", 0) for s in systems), n),
        "hyperconnect.recharges": (sum(s.get("recharges", 0) for s in systems), n),
        "mem.busy_frac": (sum(s["mem_busy"] for s in systems) / cycles if cycles else 0.0, n),
        "mem.row_hit_ratio": (hits / accesses if accesses else 0.0, n),
        "mem.queue_frac": frac("mem_queue"),
        "mem.service_frac": frac("mem_service"),
    }
    for cause in HC_CAUSES:
        layers[f"hyperconnect.{cause}_frac"] = frac(cause)
    return layers


# --- host record ------------------------------------------------------------

def cpu_info():
    model, mhz = "unknown", 0.0
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            elif key.strip() == "cpu MHz" and not mhz:
                mhz = float(value)
    except OSError:
        pass
    return model, mhz


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    (ROOT / ".bench_build" / "tmp").mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_build" / "tmp"))
    try:
        input_ini = out / "input.ini"
        input_ini.write_text(make_input(args.workload, args.seed, args.trace))
        ref_ini = out / "ref_input.ini"
        ref_ini.write_text(make_input(args.workload, args.seed, args.trace, reference=True))
        cpus = sorted(os.sched_getaffinity(0))[:WORKERS]
        env = {k: v for k, v in os.environ.items() if not k.startswith("AXIHC_")}
        env["AXIHC_BENCH_THREADS"] = str(len(cpus))
        cmd = [str(PROGRAM), "--workload", args.workload, "--input", str(input_ini),
               "--ref-input", str(ref_ini), "--out", str(out), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        # The program's stderr (campaign fault warnings: megabytes) goes to a
        # file, so no reader competes with it for the CPU.
        log = out / "stderr.txt"
        try:
            # Both builds get their own worker pool; pinned to the same
            # CPUs, the two halves of a pair run on the same cores.
            with log.open("w") as err:
                done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                      timeout=RUN_S,
                                      preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        except subprocess.TimeoutExpired:
            fail("benchmark program exceeded the time limit", 1)
        if done.returncode != 0:
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
            fail(f"benchmark program exited with {done.returncode}", 1)
        result = json.loads((out / "result.json").read_text())
        checks = Checks()
        fingerprint, values = REDUCE[args.workload](result, out, args.trace, checks)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    model, mhz = cpu_info()
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": result["workers"], "nproc": os.cpu_count(),
        "cpu_model": model, "cpu_mhz": mhz, "compiler": result["compiler"],
        "build_type": result["build_type"], "cxx_flags": result["cxx_flags"].strip(),
    }
    out_metrics, samples = {}, {}
    if not args.trace:
        info["raw_medians"] = values.pop("raw")
        values["peak_rss_mb"] = [result["peak_rss_kb"] / 1024.0]
    for m in declared_metrics(args.trace):
        name = m["name"]
        if not args.trace:
            series = values[name]
            value = statistics.median(series)
            samples[name] = {"n": len(series), "spread": round(metrics.spread(series), 4)}
        elif name == "failed_frac":
            value = checks.failed / checks.attempted
            samples[name] = {"n": checks.attempted}
        elif name in values:
            value, n, *pct = values[name]
            samples[name] = {"n": n, **({"percentile": pct[0]} if pct else {})}
        else:
            value = 0  # the workload does not exercise this layer
            samples[name] = {"n": 0}
        out_metrics[name] = {"value": value, "unit": m["unit"]}

    print(json.dumps({"info": info, "samples": samples}))
    print(json.dumps({"fingerprint": fingerprint}))
    for sim_id, problems in sorted(checks.failures.items())[:20]:
        print(json.dumps({"check_failed": sim_id, "problems": problems}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": out_metrics}))


if __name__ == "__main__":
    main()
