#!/usr/bin/env python3
"""The repository benchmark: builds the program from source, runs one
workload against its default configuration and prints the result.

    python3 perfbench/run.py --workload stream-window|stream-online
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it builds into $CARGO_TARGET_DIR
(default .bench_build) at the checkout root. Human-readable lines come
first, then a `header:` line (commit, nproc, build type, compiler, seed),
and the last stdout line is the result object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (and a Chrome trace-event file is written to
.bench_out/). The exit code is non-zero when the build fails or any
correctness check fails. Each workload times a fixed amount of work sized
to about BENCHMARK.json's run_seconds; --seconds is accepted for the
benchmark's calling convention and does not change it. See
perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT = 170  # seconds; a run must end within 180


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def scrubbed_env():
    # URR_ORACLE, URR_THREADS, URR_ST_INDEX, URR_BENCH_* and every other
    # URR_ knob select program behaviour; none may leak into a run.
    return {k: v for k, v in os.environ.items() if not k.startswith("URR_")}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir, env):
    """Configures (once) and builds the driver. Build output goes to stderr
    so stdout stays the result channel."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        steps.append(["cmake", "-S", BENCH, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target",
                  "perfbench_urr"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out_dir, "perfbench_urr")


def cmake_cache(out_dir):
    cache = {}
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def source_digest():
    """sha256 over the sources the benchmark builds (stable without git)."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def header(out_dir, seed):
    cache = cmake_cache(out_dir)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": version[0] if version else compiler,
        "seed": seed,
    }


def check_digest(out_dir, workload, seed, digest):
    """Every run of a workload and seed with one build must log the same
    events; remembers the first digest seen in the build directory."""
    path = os.path.join(out_dir, "digests.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    key = "%s/%s/%s" % (source_digest(), workload, seed)
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return True


def run_workload(name, args, binary, env, spec):
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=name + "-", dir=scratch)
    try:
        result_path = os.path.join(tmp, "result.json")
        cmd = [binary, "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace), "--tmp", tmp, "--result",
               result_path]
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                out_dir, "trace-%s-%s.json" % (name, args.seed))]
        # Own process group: a timeout kills the driver and its threads.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            log("%s: timed out after %d s" % (name, RUN_TIMEOUT))
            return None
        sys.stdout.write(out)
        try:
            with open(result_path) as f:
                report = json.load(f)
        except (OSError, ValueError):
            log("%s: the driver wrote no result (exit %d)" % (name, proc.returncode))
            return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = report["correct"] and proc.returncode == 0
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print("CHECK FAILED: %s: metric %s missing or in the wrong unit"
                  % (name, m["name"]))
            correct = False
            continue
        metrics[m["name"]] = got
    if report.get("digest") and not check_digest(
            build_dir(), name, args.seed, report["digest"]):
        print("CHECK FAILED: %s seed %s: event log differs from an earlier run "
              "of the same build" % (name, args.seed))
        correct = False
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = scrubbed_env()
    out_dir = build_dir()
    binary = build(out_dir, env)
    if binary is None:
        log("build failed")
        return 1
    print("header: " + json.dumps(header(out_dir, args.seed), sort_keys=True))

    result = run_workload(args.workload, args, binary, env, spec)
    if result is None:
        return 1
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
