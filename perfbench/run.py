#!/usr/bin/env python3
"""Host-throughput benchmark for the ccsim simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper_wi --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests

Builds perfbench/ (the simulator library from src/ plus the ccbench driver)
into .bench_build/perfbench, runs ccbench for one workload, and prints its
result object as the last line of standard output. --trace 1 also writes
the traced run's spans and per-layer metrics to
.bench_build/perfbench/traces/<workload>-s<seed>.json.

On DEFAULT_SEED every cell's simulated-results digest is checked against
perfbench/digests.txt; --record-digests rewrites that file after a change
that is meant to alter simulated results. See perfbench/NOTES.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "ccbench")
DIGESTS = os.path.join(HERE, "digests.txt")
WORKLOADS = ("paper_wi", "paper_update", "stress_observed")
DEFAULT_SEED = 1      # the seed whose per-cell digests are recorded
HELD_OUT_SEED = 7919  # never used while tuning; for checking claims
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 140     # allowed beyond --seconds before a run is killed


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {os.path.basename(cmd[0])} timed out")
    return proc.returncode, out


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S,
                  stdout=sys.stderr)
    if code != 0:
        raise SystemExit("perfbench: build failed")


def drive(workload, seed, seconds, trace, tiny=False, print_digests=False):
    """Run ccbench once; return (digest lines, result object)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed == DEFAULT_SEED and not tiny:
        cmd += ["--digests", DIGESTS]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        suffix = "-tiny" if tiny else ""
        cmd += ["--spans", os.path.join(traces, f"{workload}-s{seed}{suffix}.json")]
    if tiny:
        cmd.append("--tiny")
    if print_digests:
        cmd.append("--print-digests")
    code, out = run(cmd, seconds + RUN_SLACK_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code not in (0, 1) or not lines:
        raise SystemExit(f"perfbench: ccbench exited with code {code}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit("perfbench: malformed ccbench result")
    return [l for l in lines[:-1] if l.startswith("digest ")], result


def self_test():
    """Tiny pass per workload: traced and untraced runs must agree on every
    cell's simulated digest, and every metric BENCHMARK.json names must be
    printed with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            lines, result = drive(w, DEFAULT_SEED, 0, trace, tiny=True,
                                  print_digests=True)
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} trace={trace}: {result['failed']} failed cells")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w} trace={trace}: metrics {got} != {want[trace]}")
            for line in lines:
                _, _, _variant, cell, d = line.split()
                digests.setdefault(cell, set()).add(d)
        for cell, ds in sorted(digests.items()):
            if len(ds) != 1:
                problems.append(f"{w} {cell}: digests differ across variants {ds}")
        print(f"self-test {w}: {len(digests)} cells, "
              f"{'ok' if not problems else 'FAILED'}", file=sys.stderr)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    return 1 if problems else 0


def record_digests():
    rows = ["# workload cell digest -- simulated cycles + counters per cell,",
            f"# seed {DEFAULT_SEED}; written by perfbench/run.py --record-digests"]
    for w in WORKLOADS:
        cmd = [DRIVER, "--workload", w, "--seed", str(DEFAULT_SEED),
               "--seconds", "0", "--print-digests"]
        code, out = run(cmd, RUN_SLACK_S, stdout=subprocess.PIPE, text=True)
        if code != 0:
            raise SystemExit(f"perfbench: {w} failed; digests not recorded")
        for line in out.splitlines():
            if line.startswith("digest "):
                _, wl, variant, cell, d = line.split()
                rows.append(f"{wl} {cell} {d}")
    with open(DIGESTS, "w") as f:
        f.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 2} digests to {DIGESTS}", file=sys.stderr)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not (args.workload or args.self_test or args.record_digests):
        ap.error("--workload is required")

    build()
    if args.self_test:
        return self_test()
    if args.record_digests:
        return record_digests()
    _, result = drive(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
