#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of bbsmine.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mine-paper --seed 1 --seconds 10 --trace 0

Workloads: mine-paper, serve-rw, fleet-read (perfbench/README.md says why
each exists). With --trace 0 the shipped binaries (bbsmine, bbsmined,
bbsrouter) run exactly as a user runs them and the end-to-end metrics are
printed; with --trace 1 the pbench helper hosts every layer in its own
process, on the workload's own data, and prints the per-layer metrics. Every
answer is checked against an oracle. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero,
with no result line, when the build or a step fails.

The first run in a checkout builds the tools and pbench with CMake into
$CARGO_TARGET_DIR (default .bench_build). Scratch files live in
.bench_work/ and are removed at exit.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# The paper's Figure 6 point: T10.I10.D100K over 10 000 items, m = 1600,
# k = 4, tau = 0.3%. pbench pins the Quest seed, so the pattern count is
# pinned too; the benchmark seed permutes transaction order.
MINE_PINNED_PATTERNS = 14249
MINE_MINSUP = 0.003

SERVE_ITEMS = 1000
SERVE_THREADS = 2
SERVE_SEGMENT_CAPACITY = 4096
# At 400 rps, 15% INSERT is ~60 transactions/s: one checkpoint every ~2 s,
# so each of a run's three daemons completes about three in its share of a
# 21 s nominal rung.
SERVE_CHECKPOINT_EVERY = 128
SERVE_RATE = 400

# The shard data layout is pbench's (README.md, "fleet-read sizing").
FLEET_LADDER = (300, 600, 1200, 2400)  # first rung = nominal
LADDER_RUNG_SECONDS = 2.5

# The serving workloads' MINE minsup (pbench's ShapeOf); a traced run mines
# their data offline at the same threshold.
SERVING_MINSUP = 0.02

# MINE requests on the paper data: at SERVING_MINSUP no itemset of it is
# frequent, at 0.01 four are.
PAPER_MINE_MINSUP = 0.01

SETUP_REPS = 3
# The serving workloads spend this share of the measured time timing MINE
# back to back on one connection, after the nominal rung (pbench load
# --mine-seconds): open-loop MINE medians flipped between two modes from
# run to run, as the daemons met each rare MINE cold or warm (README.md,
# "Deliberate departures").
MINE_SHARE = 0.3

# A traced run measures the layers its own workload does not reach for
# this long (twice, untraced then traced, for the serving parts).
FILL_SECONDS = 4

# Each mine-paper set-up writes fresh files: rewriting a 20 MB index over
# the previous one made some builds wait for its writeback (0.65 s vs 1.05 s).
MINE_SETUP_REPS = 5


class BenchError(Exception):
    pass


# ------------------------------------------------------------ processes --

class Procs:
    """Every process this run starts; all are stopped and reaped at exit."""

    def __init__(self):
        self.live = []

    def spawn(self, args, log_path):
        log = open(log_path, "wb")
        proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        log.close()
        proc.log_path = log_path
        self.live.append(proc)
        return proc

    def stop(self, proc, sig=signal.SIGTERM, timeout=60):
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.live:
            self.live.remove(proc)
        return proc.returncode

    def stop_all(self):
        for proc in list(self.live):
            self.stop(proc, signal.SIGKILL, timeout=10)


PROCS = Procs()


def run(args, timeout=170):
    """Runs a command to completion; returns (seconds, stdout)."""
    start = time.monotonic()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT)
    PROCS.live.append(proc)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        PROCS.stop(proc, signal.SIGKILL, timeout=10)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (
            " ".join(args[:2]), proc.returncode,
            err.decode(errors="replace")[-2000:]))
    return elapsed, out.decode()


def run_measured(args, timeout=170):
    """Like run(), but reaps with wait4 to read the child's peak RSS."""
    start = time.monotonic()
    proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, cwd=ROOT)
    PROCS.live.append(proc)
    deadline = start + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            PROCS.stop(proc, signal.SIGKILL)
            raise BenchError("%s timed out" % args[0])
        time.sleep(0.002)
    elapsed = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode(errors="replace")
    proc.stderr.close()
    PROCS.live.remove(proc)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (args[0], proc.returncode,
                                                 err[-2000:]))
    return elapsed, usage.ru_maxrss


def trace_path(work, part):
    """Where a traced part writes its spans: beside, not inside, the run's
    scratch directory, so the Chrome trace outlives the run."""
    return "%s-%s-trace.json" % (work, part)


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("no JSON result in output")


def wait_listening(proc, log_path, timeout=60):
    """Waits for the daemon's 'listening on HOST:PORT' line; returns PORT."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(log_path, "rb") as f:
            for line in f.read().decode(errors="replace").splitlines():
                if " listening on " in line:
                    return int(line.split(" listening on ")[1].split()[0]
                               .rsplit(":", 1)[1])
        if proc.poll() is not None:
            raise BenchError("%s exited early: %s" % (
                log_path, open(log_path, "rb").read()[-2000:]))
        time.sleep(0.005)
    raise BenchError("timed out waiting for " + log_path)


def crashed(procs):
    """The spawned processes in `procs` that exited by themselves. Each is
    reported with its exit code and log tail; a run counts each as a failed
    check rather than stopping, so the program's defect shows as
    "correct": false."""
    dead = [proc for proc in procs if proc.poll() is not None]
    for proc in dead:
        with open(proc.log_path, "rb") as f:
            tail = f.read()[-600:].decode(errors="replace")
        print("perfbench: %s exited by itself with code %d; its log ends:\n%s"
              % (proc.args[0], proc.returncode, tail), file=sys.stderr)
    if len(dead) == len(procs):
        raise BenchError("every served process exited during the load")
    return dead


def peak_rss_mb(proc):
    with open("/proc/%d/status" % proc.pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % proc.pid)


# ---------------------------------------------------------------- build --

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "pbench",
                  "bbsmine_cli", "bbsmined", "bbsrouter"])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "wb") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=env) != 0:
                raise BenchError("build failed; see " + log_path)
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    return {
        "pbench": os.path.join(out, "pbench"),
        "bbsmine": os.path.join(out, "bbsmine", "tools", "bbsmine"),
        "bbsmined": os.path.join(out, "bbsmine", "tools", "bbsmined"),
        "bbsrouter": os.path.join(out, "bbsmine", "tools", "bbsrouter"),
        "build_type": build_type,
    }


def fingerprint(tools, seed):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    _, out = run([tools["pbench"], "fingerprint"])
    return {
        "cpu": model or platform.processor(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "simd_kernel": last_json(out)["kernel"],
        "build_type": tools["build_type"],
        "seed": seed,
    }


# ------------------------------------------------------------ mine-paper --

def read_patterns(path):
    patterns = {}
    with open(path) as f:
        for line in f:
            items, _, support = line.rpartition(" (")
            patterns[tuple(int(x) for x in items.split())] = int(
                support.rstrip(")\n"))
    return patterns


def mine_setup(tools, work, seed, rep):
    db = os.path.join(work, "d%d.db" % rep)
    bbs = os.path.join(work, "d%d.bbs" % rep)
    start = time.monotonic()
    run([tools["pbench"], "gen-quest", "--items", "10000",
         "--shuffle-seed", str(seed),
         "--out", db])
    build_s, rss = run_measured([tools["bbsmine"], "build", "--db", db,
                                 "--out", bbs, "--bits", "1600",
                                 "--hashes", "4"])
    return time.monotonic() - start, build_s, rss, db, bbs


def mine_paper(tools, work, seed, seconds, trace):
    setups = [mine_setup(tools, work, seed, rep) for rep in range(
        1 if trace else MINE_SETUP_REPS)]
    _, _, _, db, bbs = setups[-1]
    par = str(min(4, os.cpu_count() or 1))
    if trace:
        return traced(tools, work, seed, seconds, "mine-paper", {
            "mine-paper": lambda: mine_part(db, bbs, MINE_MINSUP,
                                            MINE_PINNED_PATTERNS),
            "serve-rw": lambda: serve_part(
                work, db, segmented_index(tools, db), PAPER_MINE_MINSUP),
            "fleet-read": lambda: fleet_part(*fleet_inputs(tools, work,
                                                           seed)),
        })

    # Oracle: FP-growth (exact, no index) on the same database.
    oracle_path = os.path.join(work, "oracle.txt")
    run([tools["bbsmine"], "mine", "--db", db, "--algo", "fpgrowth",
         "--minsup", str(MINE_MINSUP), "--out", oracle_path])
    oracle = read_patterns(oracle_path)
    attempted, failed = 1, 0
    if len(oracle) != MINE_PINNED_PATTERNS:
        failed += 1
        print("perfbench: oracle found %d patterns, pinned %d" % (
            len(oracle), MINE_PINNED_PATTERNS), file=sys.stderr)

    runs = [("mine_dfp_s", "dfp", "1"), ("mine_sfp_s", "sfp", "1"),
            ("mine_dfp_par_s", "dfp", par)]
    times = {name: [] for name, _, _ in runs}
    peak_kb = max(rss for _, _, rss, _, _ in setups)
    start = time.monotonic()
    while time.monotonic() - start < seconds or min(
            len(v) for v in times.values()) < 3:
        for name, algo, threads in runs:
            out = os.path.join(work, name + ".txt")
            elapsed, rss = run_measured([
                tools["bbsmine"], "mine", "--db", db, "--index", bbs,
                "--algo", algo, "--threads", threads,
                "--minsup", str(MINE_MINSUP), "--out", out])
            times[name].append(elapsed)
            peak_kb = max(peak_kb, rss)
            got = read_patterns(out)
            if algo == "sfp":
                ok = got == oracle
            else:
                ok = got.keys() == oracle.keys() and all(
                    got[k] >= v for k, v in oracle.items())
            if name == "mine_dfp_par_s":
                with open(out, "rb") as a, open(
                        os.path.join(work, "mine_dfp_s.txt"), "rb") as b:
                    ok = ok and a.read() == b.read()
            attempted += 1
            failed += 0 if ok else 1
    medians = {name: statistics.median(v) for name, v in times.items()}
    metrics = {
        "setup_s": (statistics.median(s for s, _, _, _, _ in setups), "s"),
        "main_p50_ms": (medians["mine_dfp_s"] * 1e3, "ms"),
        "mine_p50_ms": (medians["mine_sfp_s"] * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    info = dict(medians)
    info.update({"index_build_s": min(b for _, b, _, _, _ in setups),
                 "runs_per_scheme": len(times["mine_dfp_s"]),
                 "patterns": len(oracle)})
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "info": info}


# ------------------------------------------------------------- serve-rw --

def serve_setup(tools, work, seed, tag, start_daemon=True):
    db = os.path.join(work, "s%s.db" % tag)
    seg = os.path.join(work, "s%s.seg" % tag)
    start = time.monotonic()
    run([tools["pbench"], "gen-quest", "--items", str(SERVE_ITEMS),
         "--shuffle-seed", str(seed), "--out", db])
    build_s, _ = run_measured([tools["bbsmine"], "build", "--db", db,
                               "--out", seg, "--bits", "1600", "--hashes",
                               "4", "--segment-capacity",
                               str(SERVE_SEGMENT_CAPACITY)])
    if not start_daemon:
        return time.monotonic() - start, build_s, None, None, db, seg
    durable = os.path.join(work, "durable-" + tag)
    log_path = os.path.join(work, "bbsmined-%s.log" % tag)
    proc = PROCS.spawn([tools["bbsmined"], "--index", seg, "--db", db,
                        "--durable-dir", durable, "--fsync", "always",
                        "--checkpoint-every", str(SERVE_CHECKPOINT_EVERY),
                        "--threads", str(SERVE_THREADS), "--port", "0"],
                       log_path)
    port = wait_listening(proc, log_path)
    return time.monotonic() - start, build_s, proc, port, db, seg


def serve_rw(tools, work, seed, seconds, trace):
    if trace:
        _, _, _, _, db, seg = serve_setup(tools, work, seed, "t", False)
        return traced(tools, work, seed, seconds, "serve-rw", {
            "mine-paper": lambda: mine_part(db, flat_index(tools, db),
                                            SERVING_MINSUP),
            "serve-rw": lambda: serve_part(work, db, seg),
            "fleet-read": lambda: fleet_part(*fleet_inputs(tools, work,
                                                           seed)),
        })

    # Each set-up builds its own daemon; the load is split over all three.
    setups = [serve_setup(tools, work, seed, str(rep))
              for rep in range(SETUP_REPS)]
    _, out = run([tools["pbench"], "load", "--workload", "serve-rw",
                  "--port", ",".join(str(s[3]) for s in setups),
                  "--seed", str(seed), "--db", setups[0][4],
                  "--rates", str(SERVE_RATE),
                  "--nominal-seconds", str(seconds * (1 - MINE_SHARE)),
                  "--mine-seconds", str(seconds * MINE_SHARE)])
    result = last_json(out)
    dead = crashed([s[2] for s in setups])
    rss = statistics.median(peak_rss_mb(s[2]) for s in setups
                            if s[2] not in dead)
    for setup in setups:
        if PROCS.stop(setup[2]) != 0 and setup[2] not in dead:
            raise BenchError("bbsmined did not drain cleanly")
    nominal = result["rungs"][0]
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "main_p50_ms": (nominal["count"]["p50_us"] / 1e3, "ms"),
        "mine_p50_ms": (result["mine_back_to_back"]["p50_us"] / 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    # Printed, not gated: the INSERT path, the tails and the build all
    # wait on fsyncs, which followed the shared disk from run to run
    # (README.md, "Deliberate departures").
    return {"attempted": result["attempted"] + len(setups),
            "failed": result["failed"] + len(dead),
            "metrics": metrics,
            "info": {"index_build_s": min(s[1] for s in setups),
                     "count_p50_us": nominal["count"]["p50_us"],
                     "mine_req_p50_us": nominal["mine"]["p50_us"],
                     "insert_p50_us": nominal["insert"]["p50_us"],
                     "count_p99_us": nominal["count"]["tail_us"],
                     "insert_p99_us": nominal["insert"]["tail_us"],
                     "checkpoint_every_txns": SERVE_CHECKPOINT_EVERY,
                     "acked_inserts": result["acked_inserts"],
                     "nominal": nominal}}


# ----------------------------------------------------------- fleet-read --

def fleet_setup(tools, work, seed, tag, start_fleet=True):
    prefix = os.path.join(work, "fleet" + tag)
    start = time.monotonic()
    _, out = run([tools["pbench"], "gen-fleet",
                  "--shuffle-seed", str(seed), "--out-prefix", prefix])
    shards = range(len(last_json(out)["shards"]))
    dbs = ["%s.%d.db" % (prefix, s) for s in shards]
    indexes = ["%s.%d.bbs" % (prefix, s) for s in shards]
    build_s = 0.0
    for db, bbs in zip(dbs, indexes):
        build_s += run_measured([tools["bbsmine"], "build", "--db", db,
                                 "--out", bbs, "--bits", "1600",
                                 "--hashes", "4"])[0]
    procs = []
    port = None
    if start_fleet:
        shard_ports = []
        for s, (db, bbs) in enumerate(zip(dbs, indexes)):
            log_path = os.path.join(work, "shard%d-%s.log" % (s, tag))
            proc = PROCS.spawn([tools["bbsmined"], "--index", bbs, "--db", db,
                                "--threads", "1", "--port", "0"], log_path)
            procs.append((proc, log_path))
        for proc, log_path in procs:
            shard_ports.append(wait_listening(proc, log_path))
        log_path = os.path.join(work, "router-%s.log" % tag)
        router = PROCS.spawn([tools["bbsrouter"], "--shards", ",".join(
            "127.0.0.1:%d" % p for p in shard_ports), "--port", "0"],
            log_path)
        procs.append((router, log_path))
        port = wait_listening(router, log_path)
    return (time.monotonic() - start, build_s, [p for p, _ in procs], port,
            dbs, indexes)


def stop_fleet(procs, dead=()):
    for proc in reversed(procs):
        if PROCS.stop(proc) != 0 and proc not in dead:
            raise BenchError("fleet process did not drain cleanly")


def fleet_read(tools, work, seed, seconds, trace):
    if trace:
        _, _, _, _, dbs, indexes = fleet_setup(tools, work, seed, "t", False)
        return traced(tools, work, seed, seconds, "fleet-read", {
            "mine-paper": lambda: mine_part(dbs[0], indexes[0],
                                            SERVING_MINSUP),
            "serve-rw": lambda: serve_part(
                work, dbs[0], segmented_index(tools, dbs[0])),
            "fleet-read": lambda: fleet_part(dbs, indexes),
        })

    # Each set-up builds its own fleet; only the last one stays up, so the
    # load meets one router and two shards, not three idle fleets.
    setups = []
    for rep in range(SETUP_REPS):
        setups.append(fleet_setup(tools, work, seed, str(rep)))
        if rep + 1 < SETUP_REPS:
            stop_fleet(setups[-1][2])
    live = setups[-1]
    # The nominal rung and the back-to-back MINEs share the measured time;
    # the higher rungs after them are short and only printed (README.md,
    # "Deliberate departures").
    _, out = run([tools["pbench"], "load", "--workload", "fleet-read",
                  "--port", str(live[3]),
                  "--seed", str(seed),
                  "--db", ",".join(live[4]),
                  "--rates", ",".join(str(r) for r in FLEET_LADDER),
                  "--nominal-seconds", str(seconds * (1 - MINE_SHARE)),
                  "--mine-seconds", str(seconds * MINE_SHARE),
                  "--rung-seconds", str(LADDER_RUNG_SECONDS)])
    result = last_json(out)
    dead = crashed(live[2])
    rss = sum(peak_rss_mb(p) for p in live[2] if p not in dead)
    stop_fleet(live[2], dead)
    nominal = result["rungs"][0]
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "main_p50_ms": (nominal["count"]["p50_us"] / 1e3, "ms"),
        "mine_p50_ms": (result["mine_back_to_back"]["p50_us"] / 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {"attempted": result["attempted"] + len(live[2]),
            "failed": result["failed"] + len(dead),
            "metrics": metrics,
            "info": {"count_p50_us": nominal["count"]["p50_us"],
                     "index_build_s": min(s[1] for s in setups),
                     "count_p99_us": nominal["count"]["tail_us"],
                     "mine_req_p50_us": nominal["mine"]["p50_us"],
                     "gen_late_us_p99": nominal["late_us_p99"],
                     "max_rps": result["max_rps"],
                     "shared_only_share": result["shared_only_share"],
                     "prune_ratio": result["prune_ratio"],
                     "rungs": result["rungs"]}}


# ---------------------------------------------------------- traced run --

def flat_index(tools, db):
    bbs = os.path.splitext(db)[0] + ".bbs"
    run([tools["bbsmine"], "build", "--db", db, "--out", bbs,
         "--bits", "1600", "--hashes", "4"])
    return bbs


def segmented_index(tools, db):
    seg = os.path.splitext(db)[0] + ".seg"
    run([tools["bbsmine"], "build", "--db", db, "--out", seg,
         "--bits", "1600", "--hashes", "4",
         "--segment-capacity", str(SERVE_SEGMENT_CAPACITY)])
    return seg


def fleet_inputs(tools, work, seed):
    """fleet-read's shards and their indexes. The other workloads' data is
    not cut into shards for the fleet part: both halves of a contiguous
    split saturate their signatures, and Bloofi would prune nothing."""
    _, _, _, _, dbs, indexes = fleet_setup(tools, work, seed, "f", False)
    return dbs, indexes


def mine_part(db, bbs, minsup, patterns=0):
    return ["--db", db, "--index", bbs, "--minsup", str(minsup),
            "--patterns", str(patterns)]


def serve_part(work, db, seg, mine_minsup=SERVING_MINSUP):
    return ["--db", db, "--index", seg, "--work-dir", work,
            "--checkpoint-every", str(SERVE_CHECKPOINT_EVERY),
            "--threads", str(SERVE_THREADS), "--rate", str(SERVE_RATE),
            "--mine-minsup", str(mine_minsup)]


def fleet_part(dbs, indexes, mine_minsup=SERVING_MINSUP):
    return ["--db", ",".join(dbs), "--index", ",".join(indexes),
            "--rate", str(FLEET_LADDER[0]),
            "--mine-minsup", str(mine_minsup)]


def traced(tools, work, seed, seconds, own, parts):
    """Runs pbench's traced part of every workload on this workload's data:
    its own part for the measured time, then the others for FILL_SECONDS,
    so every layer is measured on every workload. `parts` maps a part to a
    function returning its input flags. A metric comes from the first part
    that reports it, the workload's own first."""
    attempted, failed, metrics, info = 0, 0, {}, {}
    for part in [own] + [p for p in WORKLOADS if p != own]:
        part_seconds = seconds if part == own else min(seconds, FILL_SECONDS)
        _, out = run([tools["pbench"], "traced", "--workload", part]
                     + parts[part]()
                     + ["--seconds", str(part_seconds), "--seed", str(seed),
                        "--trace-out", trace_path(work, part)])
        result = last_json(out)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics.setdefault(name, value)
        info[part] = result["info"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "info": info}


WORKLOADS = {"mine-paper": mine_paper, "serve-rw": serve_rw,
             "fleet-read": fleet_read}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        tools = build()
        os.makedirs(work)
        print("perfbench fingerprint: " + json.dumps(
            fingerprint(tools, args.seed)))
        result = WORKLOADS[args.workload](tools, work, args.seed,
                                          args.seconds, args.trace == 1)
    except BenchError as error:
        print("perfbench: " + str(error), file=sys.stderr)
        return 1
    finally:
        PROCS.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace == 0:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in metrics.items()}
    print("perfbench info: " + json.dumps(result.get("info", {})))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
