#!/usr/bin/env python3
"""Builds and runs the PTA benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (which compiles the
libraries from src/) in Release under .bench_build/, runs the known-answer
self-test, then runs one workload and relays its output; the last line is
the result JSON. `--workload all` runs every workload in turn and prints the
summary table. Results (with the environment stamp) go to
.bench_build/results/, traces of --trace 1 runs to .bench_build/traces/.
Exits non-zero when the build, the self-test or a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["batch_csv", "serve_update", "stream_feed"]
# Workload-specific metric names, printed by `--workload all`.
SUMMARY = [
    ("batch_csv", "batch_rows_per_s"),
    ("serve_update", "cut_p50_ms"),
    ("serve_update", "cut_p99_ms"),
    ("serve_update", "cut_qps"),
    ("serve_update", "rebuild_s"),
    ("stream_feed", "stream_rows_per_s"),
    ("stream_feed", "chunk_p99_ms"),
]


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_stamp():
    """Commit id if the checkout is a git work tree, else a source digest.

    Reads only files inside the checkout (no git process, which would search
    parent directories)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    return f.read().strip()
        else:
            return ref
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("command failed: " + " ".join(cmd))


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from the root of a full checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", out, "-j", "4"])
    run_quiet([os.path.join(out, "ptabench_selftest")])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in config[key]}


def run_workload(out, workload, seed, seconds, trace, relay=True):
    """Runs one workload; returns (exit code, result dict or None)."""
    for sub in ("work", "results", "traces"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    cmd = [os.path.join(out, "ptabench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", source_stamp(),
           "--work-dir", os.path.join(out, "work"),
           "--results", os.path.join(out, "results", tag + ".json"),
           "--trace-file", os.path.join(out, "traces", workload + ".json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if relay:
        body = lines[:-1] if result is not None else lines
        for line in body:
            print(line)
    if result is None:
        return (proc.returncode or 1), None
    # The reported metric set must match BENCHMARK.json exactly.
    expected = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        print("run.py: metrics differ from BENCHMARK.json: %s" %
              sorted(set(got.items()) ^ set(expected.items())), file=sys.stderr)
        return 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    out = build_dir()
    build(out)
    if args.workload != "all":
        code, result = run_workload(out, args.workload, args.seed,
                                    args.seconds, args.trace)
        if result is None:
            sys.exit(code or 1)
        print(json.dumps(result))
        sys.exit(code)

    code = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print("== %s" % workload)
        rc, result = run_workload(out, workload, args.seed, args.seconds,
                                  args.trace)
        code = code or rc or (1 if result is None else 0)
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    if args.trace == 0:
        print("== summary (end-to-end metrics by workload)")
        for workload in WORKLOADS:
            path = os.path.join(out, "results", "%s-seed%d-trace0.json" %
                                (workload, args.seed))
            if not os.path.isfile(path):
                continue
            with open(path) as f:
                metrics = json.load(f)["metrics"]
            for name in ("setup_s", "peak_rss_mb", "error_ratio"):
                m = metrics[name]
                print("%-13s %-18s %.6g %s" % (workload, name, m["value"],
                                               m["unit"]))
            for wl, name in SUMMARY:
                if wl == workload and name in metrics:
                    m = metrics[name]
                    print("%-13s %-18s %.6g %s" % (workload, name, m["value"],
                                                   m["unit"]))
    print(json.dumps(merged))
    sys.exit(code)


if __name__ == "__main__":
    main()
