#!/usr/bin/env python3
"""REsPoNse benchmark runner.

Builds respctld and the benchmark executable from the checkout's sources
in a dune workspace of their own (.bench_build/ws), then runs one
workload and relays its output; the last line is the JSON result.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --quick     # every workload on tiny inputs

Workloads: replay, chaos, serve, analyze. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
SCRATCH = os.path.join(BUILD, "scratch")
WORKLOADS = ["replay", "chaos", "serve", "analyze"]
# Sources copied into the workspace: the program's libraries and
# daemon, plus the benchmark's own package.
SOURCES = [("dune-project", "dune-project"), ("lib", "lib"), ("bin", "bin"),
           (os.path.join("perfbench", "ocaml"), "perfbench")]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def same_file(a, b):
    if not os.path.isfile(b) or os.path.getsize(a) != os.path.getsize(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def sync(src, dst):
    """Mirrors src into dst, touching only files whose bytes changed, so
    dune rebuilds only what the checkout changed."""
    if os.path.isfile(src):
        if not same_file(src, dst):
            shutil.copyfile(src, dst)
        return
    os.makedirs(dst, exist_ok=True)
    wanted = set(e for e in os.listdir(src) if not e.startswith(("_", ".")))
    for e in os.listdir(dst):
        if e not in wanted and e != "_build":
            p = os.path.join(dst, e)
            shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)
    for e in sorted(wanted):
        sync(os.path.join(src, e), os.path.join(dst, e))


def build():
    missing = [s for s, _ in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        log("run.py: the checkout lacks %s; nothing to build" % ", ".join(missing))
        sys.exit(2)
    os.makedirs(WS, exist_ok=True)
    for src, dst in SOURCES:
        sync(os.path.join(ROOT, src), os.path.join(WS, dst))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", WS, "./perfbench/pb.exe", "./bin/respctld.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("run.py: build failed: %s" % e)
        sys.exit(2)
    if r.returncode != 0:
        log("run.py: build failed (dune exit %d)" % r.returncode)
        sys.exit(2)
    exe = lambda p: os.path.join(WS, "_build", "default", p)
    return exe("perfbench/pb.exe"), exe("bin/respctld.exe")


def pin_to_one_cpu():
    """The benchmark and the daemon it starts share one CPU, the last one
    this process may use (the first takes most interrupts). On a small
    virtual machine, request/reply ping-pong across vCPUs swings serve
    throughput by 2x between identical runs (README.md, noise controls)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(pb, daemon, workload, seed, seconds, trace, quick, capture):
    os.makedirs(SCRATCH, exist_ok=True)
    cmd = [pb, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--daemon", daemon,
           "--corpus", os.path.join("perfbench", "corpus"), "--scratch", SCRATCH]
    if quick:
        cmd.append("--quick")
    # A session of its own, so a timeout can stop the daemon too.
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        log("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 3, None
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)  # anything the run left behind
        except ProcessLookupError:
            pass
    return p.returncode, out.decode() if capture else None


def quick(pb, daemon):
    """Every workload on tiny inputs, untraced and traced, with every
    correctness check; the result lines must name exactly the metrics
    BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            t0 = time.time()
            code, out = run_workload(pb, daemon, w, 1, 1, trace, True, True)
            lines = (out or "").strip().splitlines()
            try:
                res = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                ok = code == 0 and res["correct"] and got == want[trace]
            except (IndexError, ValueError, KeyError, TypeError):
                res, got, ok = None, None, False
            log("quick %-8s trace %d: %s (%.1f s)" % (w, trace, "ok" if ok else "FAILED",
                                                      time.time() - t0))
            if not ok:
                bad += 1
                log("\n".join(lines[-30:]))
                if got is not None and got != want[trace]:
                    log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
                        sorted(set(want[trace]) - set(got)), sorted(set(got) - set(want[trace]))))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload on tiny inputs with every check")
    a = ap.parse_args()
    pb, daemon = build()
    pin_to_one_cpu()
    if a.quick:
        sys.exit(quick(pb, daemon))
    codes = [run_workload(pb, daemon, w, a.seed, a.seconds, a.trace, False, False)[0]
             for w in ([a.workload] if a.workload else WORKLOADS)]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
