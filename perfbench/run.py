#!/usr/bin/env python3
"""Build and run the hpcap benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds `hpcapd` and the `perfbench` driver from this
checkout's sources (CMake, into $CARGO_TARGET_DIR or .bench_build; a no-op
once built), runs one workload and passes its output through. The last
line of standard output is the run's JSON result. Build output goes to
standard error. The second form runs every workload briefly, checks that
each declared metric is printed with its unit and that the oracle flags a
deliberately perturbed reference, and exits non-zero if anything is off.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["inproc", "wire-bulk", "wire-tick", "wire-sharded"]
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def run(out, workload, seed, seconds, trace, perturb=False, capture=False):
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--bin-dir", out,
           "--out-dir", os.path.join(out, "out")]
    if perturb:
        cmd.append("--perturb-reference")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %d s" % (workload,
                                                         RUN_TIMEOUT_S))


def self_check(out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(out, workload, 1, 1, trace, capture=True)
            lines = proc.stdout.strip().splitlines()
            tag = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (tag, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%s" % (
                    tag, result["correct"], result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append("%s: metrics %s differ from BENCHMARK.json"
                                % (tag, sorted(set(got) ^ set(declared[trace]))))
            if not any(l.startswith("metric failed_frac = ") for l in lines):
                problems.append("%s: failed_frac not printed" % tag)
            print("self-check %-24s ok=%s attempted=%d" % (
                tag, result["correct"], result["attempted"]))
    # Negative control: a perturbed reference must be caught.
    for workload in ("inproc", "wire-bulk"):
        proc = run(out, workload, 1, 1, 0, perturb=True, capture=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode == 1 and result.get("correct") is False
                  and any("first divergent window" in l for l in lines))
        print("self-check %-24s oracle flags perturbed reference: %s" % (
            workload + " (negative)", caught))
        if not caught:
            problems.append("%s: perturbed reference not flagged" % workload)
    for p in problems:
        print("FAIL " + p)
    print("self-check: %s" % ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    out = build()
    if args.self_check:
        return self_check(out)
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    return run(out, args.workload, args.seed, seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
