#!/usr/bin/env python3
"""The repository benchmark: one command that builds the simulator from
source, runs one workload and prints every metric by name with its unit.

    python3 perfbench/run.py --workload halo_small --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of an untraced run in the default
configuration; --trace 1 prints the per-layer metrics of a separate traced
run. Every measurement runs in a fresh process of the runner
(perfbench/runner). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
record the host and the metrics in readable form. See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("himeno_cichlid4", "halo_small", "service_mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
# Fresh timed processes per run; each measures --seconds / TIMED_PROCESSES,
# so effects that hold for a whole process (memory placement, thread
# placement) average out. setup_s and peak_rss_mib are their medians.
TIMED_PROCESSES = 5
# The launcher setting under which the Fig. 9 timeline repeats exactly.
FIDELITY_ENV = {"CLMPI_SCHED": "fibers", "CLMPI_FIBER_WORKERS": "1"}
RUNNER_TIMEOUT_S = 150


def log(text):
    print(text, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the runner; returns its path."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD, "perfbench_runner")


def step(cmd):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        log(res.stdout)
        raise RuntimeError("build step failed: " + " ".join(cmd))


def spawn(exe, args, mode, seconds=None, env=None):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds or args.seconds), "--mode", mode]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         timeout=RUNNER_TIMEOUT_S, env=dict(os.environ, **(env or {})))
    if res.returncode != 0 or not res.stdout.strip():
        log(res.stderr)
        raise RuntimeError("runner %s run exited with %d" % (mode, res.returncode))
    return json.loads(res.stdout.strip().splitlines()[-1])


def cache_entry(name):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_metadata():
    compiler = cache_entry("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        res = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        version = res.stdout.splitlines()[0] if res.stdout else ""
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True) if shutil.which("git") else None
    workers = os.environ.get("CLMPI_FIBER_WORKERS", "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_online": os.cpu_count(),
        "build_type": cache_entry("CMAKE_BUILD_TYPE"),
        "compiler": version or compiler,
        "git_rev": rev.stdout.strip() if rev is not None and rev.returncode == 0 else None,
        "source_digest": source_digest(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "fiber_workers_default": int(workers) if workers.isdigit() and int(workers) > 0
                                 else os.cpu_count(),
        "clmpi_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("CLMPI_")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        exe = build()
        meta = host_metadata()
        if args.trace == 0:
            timed = [spawn(exe, args, "timed", seconds=args.seconds / TIMED_PROCESSES)
                     for _ in range(TIMED_PROCESSES)]
            count = spawn(exe, args, "count")
            fidelity = spawn(exe, args, "fidelity", env=FIDELITY_ENV)
            metrics = stats.end_to_end(timed, count, fidelity)
            checked = timed + [fidelity]
        else:
            traced = spawn(exe, args, "traced")
            metrics = stats.per_layer(traced)
            checked = [traced]
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1

    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    print("# host " + json.dumps(meta, sort_keys=True))
    print("# workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    if args.trace == 0:
        f = fidelity["values"]
        walls = [r["wall_s"] for t in timed for r in t["runs"]]
        pct = stats.tail(walls)[1]
        print("# samples: %d runs (tail at p%s), %d jobs (p99 latency %.6g s), %d processes"
              % (len(walls), "%.0f" % pct if pct is not None else "100",
                 sum(len(t["job_latency_s"]) for t in timed), stats.job_latency_p99(timed),
                 len(timed)))
        print("# fidelity: clMPI/hand %.4f, serial comp:comm %.3f, exposed comm hand %.0f us "
              "clMPI %.0f us" % (f["fig9_ratio"], f["serial_comp_comm"], f["hand.exposed_comm_us"],
                                 f["clmpi.exposed_comm_us"]))
    for name, (value, unit) in metrics.items():
        print("# %-34s %14.6g %s" % (name, value, unit))
    print("# fail_ratio %d/%d" % (failed, attempted))
    for r in checked:
        for what in r["failures"]:
            print("# failure: " + what)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
