#!/usr/bin/env python3
"""The repository benchmark: build the harness from this checkout and run it.

One run (the form the benchmark command takes):

    python3 perfbench/run.py --workload table4_default --seed 1 --seconds 30 --trace 0

builds perfbench/ (CMake, Release) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set, runs one workload and passes
the harness's output through: the last line of stdout is the result JSON.
--trace 1 prints the per-layer metrics instead of the end-to-end ones and
writes the traced spans to <build dir>/spans/<workload>-seed<N>.json.

Steadiness check (run each workload on several seeds and compare every
metric's quartile spread with its bound in BENCHMARK.json):

    python3 perfbench/run.py --steady 5 [--workload NAME ...] [--trace 0|1]

Run from the root of the checkout. Exits non-zero without a result line
when the harness cannot be built (e.g. outside a checkout).
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    out = build_dir()
    ninja = shutil.which("ninja")
    generated = os.path.join(out, "build.ninja" if ninja else "Makefile")
    if not os.path.exists(generated):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if ninja:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def code_digest():
    """SHA-256 over the library sources and this directory: equal exactly
    for runs of the same code."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def harness_args(binary, workload, seed, seconds, trace):
    """The harness command line. Every run of the same code compares its
    campaign CSV digest with the one the first such run recorded under
    digests/<code digest>/, whatever its seed or --trace."""
    scratch = os.path.join(build_dir(), "scratch")
    spans = os.path.join(build_dir(), "spans")
    digests = os.path.join(build_dir(), "digests", code_digest())
    for d in (scratch, spans, digests):
        os.makedirs(d, exist_ok=True)
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scratch", scratch,
            "--spans", os.path.join(spans, f"{workload}-seed{seed}.json"),
            "--digest-file", os.path.join(digests, workload)]


def run_once(binary, workload, seed, seconds, trace, capture):
    """Runs the harness; returns (exit code, stdout text or None)."""
    cmd = harness_args(binary, workload, seed, seconds, trace)
    # subprocess.run kills and reaps the harness on a timeout or on any
    # exception, including the SystemExit main() raises on SIGTERM.
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    return proc.returncode, proc.stdout.decode() if capture else None


def spread(values, bound=None):
    """Quartile statistics of one metric over several runs.

    Quartiles are statistics.quantiles(values, n=4); `iqr_frac` is their
    distance as a share of the median and `range_frac` the min-max distance
    as a share of the median. `steady` holds when iqr_frac is under a third
    of the bound (None without a bound).
    """
    if len(values) < 2:
        raise ValueError("spread needs at least two runs")
    q1, med, q3 = statistics.quantiles(values, n=4)
    scale = abs(med) if med else float("nan")
    row = {
        "median": med, "q1": q1, "q3": q3,
        "iqr_frac": (q3 - q1) / scale,
        "range_frac": (max(values) - min(values)) / scale,
        "bound": bound, "steady": None,
    }
    if bound is not None:
        row["steady"] = row["iqr_frac"] < bound / 3.0
    return row


def steady(binary, spec, workloads, runs, trace, first_seed):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    all_steady = True
    for workload in workloads:
        values = {}
        for seed in range(first_seed, first_seed + runs):
            code, out = run_once(binary, workload, seed, spec["run_seconds"],
                                 trace, capture=True)
            if code != 0 or not out:
                log(f"{workload} seed {seed}: harness exited {code}")
                return 1
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                log(f"{workload} seed {seed}: correctness gate failed")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        for name, vals in values.items():
            row = spread(vals, bounds.get(name))
            flag = {None: "", True: "ok", False: "WIDE"}[row["steady"]]
            if row["steady"] is False:
                all_steady = False
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            print(f"  {name:36} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['iqr_frac']:8.4f} "
                  f"{row['range_frac']:9.4f} {bound:>6} {flag}")
        sys.stdout.flush()
    return 0 if all_steady else 3


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="run each workload on N seeds and report spreads")
    args = parser.parse_args(argv)

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if args.steady:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        return steady(binary, spec, workloads, args.steady, args.trace, args.seed)
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        parser.error("a run needs exactly one --workload and --seconds")
    code, _ = run_once(binary, args.workload[0], args.seed, args.seconds,
                       args.trace, capture=False)
    return code


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
