#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root. The first call configures and builds
perfbench/ (the runtime libraries from src/ plus the C++ program) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
reuse the build. Build output and the program's human-readable report go to
stderr; the last stdout line is the result object. The exit status is
non-zero when the build fails, any output check fails, or the metrics the
program printed for a workload of BENCHMARK.json differ from the names
declared there.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the program; returns its path or None."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(bdir, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt one reference value (tests the checks)")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="regenerate BENCHMARK.json from the program")
    args = ap.parse_args()
    if not args.write_benchmark_json and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.write_benchmark_json:
        out = subprocess.run([exe, "--spec"], stdout=subprocess.PIPE,
                             check=True).stdout
        with open(os.path.join(ROOT, "BENCHMARK.json"), "wb") as f:
            f.write(out)
        return 0

    spans = os.path.join(build_dir(), "spans",
                         "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", spans]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        print("perfbench: program printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    # On a listed workload every printed metric must be declared, with the
    # same unit, and every declared metric of this mode must be printed.
    # The unlisted workloads (serve, mixed-run) print their own sets.
    spec = load_spec()
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    listed = args.workload in {w["name"] for w in spec["workloads"]}
    ok = proc.returncode == 0
    if listed and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "undeclared %s, unit mismatch %s" % (missing, extra, units),
              file=sys.stderr)
        ok = False
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
