#!/usr/bin/env python3
"""Run one workload of the mixq repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace T]
    python3 perfbench/run.py --selftest

Run it from the repository root. It builds the benchmark package
(perfbench/CMakeLists.txt: the mixq library, the `mixq` CLI and the
perfbench binary, Release with the x86-64-v3 SIMD kernels) into
.bench_build/, makes the cnn16 model with `mixq quantize` once per build,
then runs the perfbench binary. Workloads and metrics are listed in BENCHMARK.json.

Every metric is printed by name with its unit and sample count, followed
by the build and host configuration the result was measured on. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of the separate traced run with --trace 1. The full
result, configuration included, is also written to
.bench_build/work/result-<workload>-trace<t>.json (see compare.py).

The exit code is non-zero when a response differs from the serial
reference, when request accounting does not balance, when the open-loop
generator fell behind its schedule, or when the source tree is missing.
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
FIXTURES = os.path.join(ROOT, ".bench_build", "fixtures")
WORK = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170
WORKLOADS = ["engine-mnet48", "serve-ndjson"]

# cnn16, for the traced run's image, plan and protocol probes: the
# repository's own pipeline with a pinned seed; a v2 image whose weight
# banks are partly Huffman-coded.
CNN16_ARGS = ["quantize", "--compress", "--hw", "16", "--channels", "48",
              "--blocks", "3", "--classes", "10", "--wbits", "4",
              "--abits", "4", "--scheme", "pl-icn", "--epochs", "2",
              "--seed", "42", "--quiet"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def log(cmd, **kw):
    """Run a build step with its output on stderr (stdout is the result)."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, **kw)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no mixq source tree at " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        log(["cmake", *gen, "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release", "-DMIXQ_ENABLE_NATIVE=ON"])
    log(["cmake", "--build", BUILD, "--parallel", "4", "--target", *targets])


def mixq_binary():
    return os.path.join(BUILD, "mixq", "tools", "mixq")


def make_cnn16():
    """(Re)make cnn16.img when it is missing or older than the mixq CLI."""
    path = os.path.join(FIXTURES, "cnn16.img")
    mixq = mixq_binary()
    if os.path.isfile(path) and os.path.getmtime(path) >= os.path.getmtime(mixq):
        return
    os.makedirs(FIXTURES, exist_ok=True)
    tmp = path + ".tmp"
    log([mixq, *CNN16_ARGS, "--out", tmp])
    os.replace(tmp, path)


def revision():
    """git revision and dirty flag, when the benchmark runs in a checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none", False
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"], capture_output=True,
                               text=True, check=True).stdout.strip() != ""
        return rev, dirty
    except (OSError, subprocess.CalledProcessError):
        return "none", False


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args):
    names = declared_metrics(args.trace)
    build(["perfbench", "mixq_tool"])
    make_cnn16()
    rev, dirty = revision()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fixtures", FIXTURES, "--mixq", mixq_binary(), "--work", WORK,
           "--revision", rev, "--dirty", "1" if dirty else "0"]
    # Own process group: a timeout kills the binary and its daemon together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("perfbench exited with %d and no result" % proc.returncode,
             proc.returncode or 4)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("perfbench did not report %s" % ", ".join(missing), 5)
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result, separators=(",", ":")))
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.selftest:
        build(["perfbench_selftest"])
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]
                              ).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be > 0 and --seed >= 0")
    if args.workload != "all":
        return run_workload(args)
    codes = {}
    for w in WORKLOADS:
        args.workload = w
        codes[w] = run_workload(args)
    for w, code in codes.items():
        print("perfbench: %s %s" % (w, "ok" if code == 0 else
                                    "FAILED (exit %d)" % code))
    return max(codes.values())


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        fail("build step failed: %s" % " ".join(map(str, e.cmd)), 6)
