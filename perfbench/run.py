#!/usr/bin/env python3
"""Host-time benchmark of the ReSiPE simulator.

Builds perfbench/ (the library from the repository sources plus the
resipe_perfbench binary) and runs one workload:

    python3 perfbench/run.py --workload conv_batch --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --selftest

The binary's full record (provenance and every metric) is printed first;
the last line is one JSON object with the keys correct, attempted,
failed and metrics, where metrics holds the end-to-end metrics named in
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
`--workload all` runs every workload, one process each, and prints the
end-to-end figures under their per-workload names.  The exit code is 0
only when every output check passed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Worker threads in the library's pool.  Each workload picks its own
# loop thread count (2 or 1) below this; two lets the traced run measure
# parallel efficiency on every workload.
POOL_THREADS = "2"
RUN_TIMEOUT_S = 170

# Per-workload names of the end-to-end figures for `--workload all`:
# (name, unit, workloads or None for every one, record key, scale).
SUMMARY = [
    ("setup_s", "s", None, "setup_s", 1),
    ("peak_rss_mb", "MiB", None, "peak_rss_mb", 1),
    ("failed_frac", "ratio", None, "failed_frac", 1),
    ("images_per_s", "img/s", ["conv_batch"], "throughput_per_s", 1),
    ("batch_ms_p50", "ms", ["conv_batch"], "op_ms_p50", 1),
    ("batch_ms_p90", "ms", ["conv_batch"], "op_ms_p90", 1),
    ("requests_per_s", "req/s", ["mlp_serve"], "throughput_per_s", 1),
    ("request_us_p50", "us", ["mlp_serve"], "op_ms_p50", 1e3),
    ("request_us_p90", "us", ["mlp_serve"], "op_ms_p90", 1e3),
    ("served_accuracy", "ratio", ["mlp_serve"], "served_accuracy", 1),
    ("trial_ms_p50", "ms", ["lower_sweep"], "op_ms_p50", 1),
    ("trial_ms_p90", "ms", ["lower_sweep"], "op_ms_p90", 1),
    ("logit_nrmse", "ratio", ["conv_batch", "lower_sweep"], "logit_nrmse", 1),
]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds incrementally; returns the binary."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "resipe_perfbench"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "resipe_perfbench")


def stamps():
    """Commit and source provenance stamped on every record."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return ["--stamp", "git_sha=" + sha,
            "--stamp", "source_sha256=" + digest.hexdigest()[:16]]


def run_workload(binary, env, workload, args):
    """Runs the binary once; returns (result, its exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.txt")] + stamps()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("PERFBENCH ")]
    if not lines:
        fail("the binary printed no record (exit code %d)" % proc.returncode)
    result = json.loads(lines[-1][len("PERFBENCH "):])
    print("record " + json.dumps(result["record"]))
    return result, proc.returncode


def summary(results):
    """The end-to-end figures of every workload under their own names."""
    metrics = {}
    for name, unit, workloads, key, scale in SUMMARY:
        for w, (result, _) in results.items():
            if workloads is not None and w not in workloads:
                continue
            rec = result["record"]
            if key == "failed_frac":
                # Serving sheds and degrades by design; elsewhere an op
                # fails only its output check.
                value = rec["serve_failed_frac"] if "serve_failed_frac" in rec \
                    else result["failed"] / result["attempted"]
            else:
                value = rec[key] * scale
            label = name if workloads and len(workloads) == 1 else \
                "%s[%s]" % (name, w)
            print("%-28s %16.6g %s" % (label, value, unit))
            metrics[label] = {"value": value, "unit": unit}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if not args.selftest and (args.workload not in names + ["all"]
                              or args.seed is None):
        fail("--workload must be one of %s or all, and --seed is required"
             % names)

    binary = build()
    env = dict(os.environ, RESIPE_THREADS=POOL_THREADS)
    if args.selftest:
        sys.exit(subprocess.run(
            [binary, "--selftest", "--digests",
             os.path.join(HERE, "digests.txt")],
            env=env, timeout=RUN_TIMEOUT_S).returncode)

    workloads = names if args.workload == "all" else [args.workload]
    results = {w: run_workload(binary, env, w, args) for w in workloads}
    correct = all(r["correct"] and code == 0 for r, code in results.values())
    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["failed"] for r, _ in results.values())
    if args.workload == "all":
        metrics = summary(results)
    else:
        result = results[args.workload][0]
        metrics = {}
        for m in spec["per_layer" if args.trace else "end_to_end"]:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                fail("metric %s missing or in the wrong unit: %s"
                     % (m["name"], got))
            metrics[m["name"]] = got
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
