#!/usr/bin/env python3
"""The repo benchmark: builds the harness, runs one workload, checks it,
and prints every metric by name with its unit.

    python3 perfbench/run.py --workload pc-diagnose --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Metric names and units come from BENCHMARK.json at the repository root.
Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A full report
(host fingerprint, samples, failures) is written under .bench_out/.
The exit code is 0 only when every correctness check passed.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("pc-diagnose", "instrumented-run", "raw-256")
RUN_LIMIT_S = 170  # the whole command must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the harness; exits 2 on failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_times():
    """Aggregate /proc/stat CPU jiffies (the steal share of a run shows
    how much a shared host took away from it)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()[1:]
        return [int(x) for x in fields]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    if not before or not after or len(before) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else None


def host_fingerprint(harness, steal):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    affinity = sorted(os.sched_getaffinity(0))
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "affinity_mask": hex(sum(1 << c for c in affinity)),
        "hardware_concurrency": harness["hardware_concurrency"],
        "cpu_model": cpu,
        "kernel": platform.release(),
        "build_type": harness["build_type"],
        "compiler": harness["compiler"],
        "git_sha": git.stdout.strip() if git.returncode == 0
                   else "unavailable (checkout is not a git repository)",
        "source_sha256": source_digest(),
        "peak_os_threads": harness["peak_os_threads"],
        "cpu_steal_share": steal,
    }


def run_harness(args, started):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    if args.plant:
        cmd.append("--plant")
    budget = max(30.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        log("perfbench: harness did not finish within %.0f s" % budget)
        sys.exit(2)
    if res.returncode != 0:
        log("perfbench: harness exited with code %d" % res.returncode)
        sys.exit(2)
    return json.loads(res.stdout)


def check_names(spec, harness, trace):
    """Every metric BENCHMARK.json names must be reported (or, per layer,
    marked unavailable with a reason); returns the missing names."""
    if trace:
        return [m["name"] for m in spec["per_layer"]
                if m["name"] not in harness["per_layer"]]
    return [m["name"] for m in spec["end_to_end"] if m["name"] not in harness["e2e"]]


def report(args, spec, harness, host):
    """Prints the human-readable report; returns the metrics object."""
    print("perfbench %s  seed=%d  seconds=%s  trace=%d%s" % (
        args.workload, args.seed, args.seconds, args.trace,
        "  (smoke)" if args.smoke else ""))
    print("host: nproc=%d affinity=%s hardware_concurrency=%d cpu=%s build=%s compiler=%s "
          "peak_os_threads=%d cpu_steal=%s" % (
              host["nproc"], host["affinity_mask"], host["hardware_concurrency"],
              host["cpu_model"], host["build_type"], host["compiler"],
              host["peak_os_threads"],
              "n/a" if host["cpu_steal_share"] is None
              else "%.1f%%" % (100 * host["cpu_steal_share"])))
    print("source: git=%s sha256=%s" % (host["git_sha"], host["source_sha256"][:16]))
    attempted, failed = harness["attempted"], harness["failed"]
    print("units: attempted=%d failed=%d failed_ratio=%.4f" % (
        attempted, failed, failed / max(1, attempted)))
    for f in harness["failures"]:
        print("FAIL " + f)
    for n in harness["notes"]:
        print("note " + n)
    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            entry = harness["per_layer"][m["name"]]
            metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
            extra = ("unavailable: " + entry["unavailable"]) if "unavailable" in entry \
                else "n=%d" % entry["n"]
            print("  %-40s %14.6g %-6s %s" % (m["name"], entry["value"], m["unit"], extra))
    else:
        for m in spec["end_to_end"]:
            value = harness["e2e"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("  %-20s %14.6g %s" % (m["name"], value, m["unit"]))
        # The workload's own figures, under the names its README uses.
        for name, value in sorted(harness["e2e"].items()):
            if name not in metrics:
                print("  %-20s %14.6g   (workload figure)" % (name, value))
        for cls, samples in sorted(harness["samples"].items()):
            counts = ", ".join("%s n=%d" % (k, len(v)) for k, v in sorted(samples.items())
                               if k.endswith("_s") or k == "diag_experiments")
            print("  class %-30s %s" % (cls, counts))
    return metrics


def run_one(args, spec):
    """Runs one workload, prints its report and writes the report file;
    returns the fields of its result line."""
    started = time.monotonic()
    os.makedirs(OUT_DIR, exist_ok=True)
    before = cpu_times()
    harness = run_harness(args, started)
    steal = steal_share(before, cpu_times())
    missing = check_names(spec, harness, args.trace)
    if missing:
        log("perfbench: harness did not report: " + ", ".join(missing))
        sys.exit(2)
    host = host_fingerprint(harness, steal)
    metrics = report(args, spec, harness, host)
    with open(os.path.join(OUT_DIR, "report-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"host": host, "harness": harness, "metrics": metrics}, f, indent=1)
    return {"correct": harness["failed"] == 0, "attempted": harness["attempted"],
            "failed": harness["failed"], "metrics": metrics}


def run(args):
    spec = load_spec()
    build()
    if args.workload != "all":
        result = run_one(args, spec)
    else:
        # Every workload in turn; the result line keys metrics by workload.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            one = run_one(argparse.Namespace(**dict(vars(args), workload=workload)), spec)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update(
                {workload + "/" + k: v for k, v in one["metrics"].items()})
            print()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def selfcheck():
    """Runs every workload at smoke size, traced and untraced, then with a
    planted wrong expectation; each must behave as specified."""
    spec = load_spec()
    build()
    problems = []

    def command(workload, trace, plant):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
        if plant:
            cmd.append("--plant")
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = res.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            last = None
        return res.returncode, last

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, last = command(workload, trace, False)
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            ok = (code == 0 and last is not None and last.get("correct") is True and
                  set(last.get("metrics", {})) == set(names))
            print("%s %s trace=%d: exit=%d, every metric named" % (
                "PASS" if ok else "FAIL", workload, trace, code))
            if not ok:
                problems.append("%s trace=%d" % (workload, trace))
        code, last = command(workload, 0, True)
        ok = code != 0 and last is not None and last.get("correct") is False and \
            last.get("failed", 0) >= 1
        print("%s %s planted wrong expectation: exit=%d, failed=%s" % (
            "PASS" if ok else "FAIL", workload, code, last and last.get("failed")))
        if not ok:
            problems.append("%s planted" % workload)
    print("selfcheck: %s" % ("ok" if not problems else "FAILED: " + ", ".join(problems)))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one round")
    p.add_argument("--plant", action="store_true", help="plant a wrong expectation")
    p.add_argument("--selfcheck", action="store_true",
                   help="smoke-test the benchmark itself")
    args = p.parse_args()
    if args.selfcheck:
        return selfcheck()
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
