#!/usr/bin/env python3
"""tlbsim benchmark runner: host cost per simulated shootdown.

Run from the repository root:

    python3 perfbench/run.py --workload sysbench_msync --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Builds perfbench/ (and with it the library from src/) as a Release CMake
project under .bench_build/perfbench, then runs the workload binary. With
--trace 0 the last stdout line holds the end-to-end metrics BENCHMARK.json
declares; with --trace 1 the per-layer ones, from a separate traced run.
setup_s is the median over several launches of the binary of the time from
spawning it to its first measured job. End-to-end times are scaled by the
run's host-speed calibration (see perfbench.cc and README.md). Every result line is preceded by a
provenance line and is also written, with that provenance, under
.bench_build/perfbench-results/.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tlbsim_perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-results")
TRACES_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")

SETUP_LAUNCHES = 7  # set-up samples per run, the measured launch included
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_declaration():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def check_declaration(decl):
    """Every metric name is well formed, unique and carries a unit."""
    problems = []
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in decl.get(section, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                problems.append("%s: bad name %r" % (section, name))
            if name in seen:
                problems.append("%s: %r used twice" % (section, name))
            seen.add(name)
            if section != "workloads" and not UNIT_RE.match(entry.get("unit", "")):
                problems.append("%s: %r has no valid unit" % (section, name))
    names = [m["name"] for m in decl.get("end_to_end", [])]
    if "setup_s" not in names:
        problems.append("end_to_end: setup_s missing")
    return problems


def check_emitted(decl, workload, trace, metrics):
    """The run emitted exactly the metrics declared for its mode, in units."""
    declared = decl["per_layer" if trace else "end_to_end"]
    problems = []
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("%s: %s not emitted" % (workload, m["name"]))
        elif got.get("unit") != m["unit"]:
            problems.append("%s: %s in %r, declared %r"
                            % (workload, m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("%s: %s has no numeric value" % (workload, m["name"]))
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append("%s: undeclared metrics %s" % (workload, sorted(extra)))
    return problems


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no tlbsim sources next to perfbench/ (expected src/CMakeLists.txt)")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured from another checkout
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def source_digest():
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


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def launch(args, setup_only):
    """Runs the binary; returns (set-up seconds, stdout lines)."""
    cmd = [BINARY] + args + (["--setup-only"] if setup_only else [])
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail("exit %d: %s" % (r.returncode, " ".join(cmd)))
    lines = r.stdout.splitlines()
    ready = [float(l.split()[1]) for l in lines if l.startswith("ready ")]
    if not ready:
        fail("no ready line from " + " ".join(cmd))
    return ready[0] - t0, lines


def host_scale(lines):
    scale = [float(l.split()[1]) for l in lines if l.startswith("host_scale ")]
    if not scale:
        fail("no host_scale line from a set-up launch")
    return scale[0]


def run(opts, decl):
    workloads = [w["name"] for w in decl["workloads"]]
    if opts.workload not in workloads:
        fail("unknown workload %r (declared: %s)" % (opts.workload, ", ".join(workloads)))
    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    os.makedirs(TRACES_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (opts.workload, opts.seed, opts.trace)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--reference", os.path.join(HERE, "reference", opts.workload + ".json")]
    if opts.trace:
        args += ["--trace-out", os.path.join(TRACES_DIR, tag + ".json")]

    # Set-up times, each scaled by the host-speed calibration its launch
    # measured (see perfbench.cc), like every other end-to-end time.
    setups = []
    if not opts.trace:
        for _ in range(SETUP_LAUNCHES - 1):
            setup, lines = launch(args, setup_only=True)
            setups.append(setup * host_scale(lines))
    setup, lines = launch(args, setup_only=False)
    for line in lines[:-1]:
        if not line.startswith(("ready ", "host_scale ")):
            print(line)
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no report line from the workload binary")

    setups.append(setup * report["host_scale"])
    metrics = report["metrics"]
    if not opts.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    problems = check_emitted(decl, opts.workload, opts.trace, metrics)
    if report.get("build_type") != "Release":
        problems.append("refusing a %s build" % report.get("build_type"))
    if problems:
        fail("; ".join(problems))

    provenance = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "host_cores": len(os.sched_getaffinity(0)),
        "build_type": report["build_type"],
        "compiler": report["compiler"],
        "commit": commit(),
        "source_sha256": source_digest(),
        "setup_samples_scaled_s": setups,
        "host_scale": report["host_scale"],
        "job_ms_samples": report.get("job_ms_samples"),
    }
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    with open(os.path.join(RESULTS_DIR, tag + ".json"), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))


def selfcheck(decl):
    """Declaration check plus a one-second run of every workload in both
    modes, each checked for emitting every metric it declares."""
    problems = check_declaration(decl)
    if problems:
        fail("; ".join(problems))
    build()
    for w in decl["workloads"]:
        for trace in (0, 1):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace),
                    "--reference", os.path.join(HERE, "reference", w["name"] + ".json")]
            _, lines = launch(args, setup_only=False)
            report = json.loads(lines[-1])
            metrics = report["metrics"]
            if not trace:
                metrics["setup_s"] = {"value": 0.0, "unit": "s"}
            problems += check_emitted(decl, w["name"], trace, metrics)
            if not report["correct"]:
                problems.append("%s trace %d: not correct" % (w["name"], trace))
            print("selfcheck %s trace %d: %d metrics" % (w["name"], trace, len(metrics)))
    if problems:
        fail("; ".join(problems))
    print("selfcheck ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    opts = p.parse_args()
    decl = load_declaration()
    if opts.selfcheck:
        selfcheck(decl)
    elif opts.workload:
        run(opts, decl)
    else:
        p.error("--workload or --selfcheck is required")


if __name__ == "__main__":
    main()
