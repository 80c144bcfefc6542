#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers for the
sweep binaries (`fig3`, `tournament`) and the admission daemon (`admitd`).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the binaries under test and
the helper in `perfbench/` (into `$CARGO_TARGET_DIR`, default
`.bench_build`), runs the workload in rounds of fixed work until
`--seconds` have passed, checks every output, and prints one JSON object
as the last line of stdout: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones of
BENCHMARK.json; with `--trace 1` they are the per-layer ledger. A
human-readable table and the machine fingerprint go to the lines above.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Sockets and scratch files of this run; removed when it ends.
WORK = os.path.join(".bench_work", str(os.getpid()))
DAEMON_CPUS = "4"
# Set-up samples taken before each round and after the last one. The
# host's spawn cost jumps between levels (1.0, 1.3, 1.6 ms for admitd)
# that hold for a second or so, so samples spread over the whole run
# give a steadier median than one burst.
SETUP_PER_ROUND = 4
# CPU time (ns) of the helper's reference loop (`perfbench calibrate`)
# on the 2-vCPU machine this benchmark was built on, in a quiet minute.
# norm_cpu_us_per_op reports costs as if the loop took exactly this long.
CALIBRATION_REF_NS = 35e6

# name -> how one round runs and what it checks. Daemon rounds are short
# (about 1 s serial, 0.4 s at window 64): many rounds average out how the
# batches happen to form, which sets the CPU cost per request at window 64.
WORKLOADS = {
    "fig3-n100": {
        "kind": "sweep",
        "bin": "fig3",
        "args": ["--tasks", "100", "--points", "15", "--threads", "1", "--csv"],
        "points": 15,
        "sets_per_round": 15 * 200,
        "replay": "replay-fig3",
    },
    "tournament-m4": {
        "kind": "sweep",
        "bin": "tournament",
        "args": ["--threads", "1", "--csv"],
        "points": 64,
        "sets_per_round": 64 * 40,
        "replay": "replay-tournament",
    },
    "admit-serial": {"kind": "daemon", "window": 1, "requests": 20_000},
    "admit-window64": {"kind": "daemon", "window": 64, "requests": 15_000},
}

# Time layers the replays charge, as named in the per-layer table.
SWEEP_LAYERS = [
    "workload.cache_delay",
    "workload.gen",
    "overhead.pd2_required",
    "overhead.pd2_inflate",
    "overhead.edf_inflate",
    "partition.ff",
    "partition.replay",
    "partition.pack_edf",
    "partition.pack_rm_ll",
    "partition.pack_rm_exact",
    "sim.pd2_run",
    "sim.gedf_exact",
    "sim.gedf_run",
    "sim.partitioned_run",
    "tournament.generate_set",
]


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def nearest_rank(sorted_xs, q):
    """Nearest-rank quantile of an ascending list."""
    if not sorted_xs:
        return 0.0
    rank = min(len(sorted_xs), max(1, math.ceil(q * len(sorted_xs) - 1e-9)))
    return sorted_xs[rank - 1]


# ---------------------------------------------------------------- build


def build():
    """Builds the binaries under test and the helper; returns the bin dir."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        raise BenchError("run from the repository root: Cargo.toml and crates/ not found")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "experiments", "--bin", "fig3",
         "--bin", "tournament", "-p", "daemon", "--bin", "admitd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(target, "release")


def fingerprint():
    """Where a result was measured: enough to tell machines apart."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def out(cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "rustc": out(["rustc", "--version"]),
        "commit": out(["git", "rev-parse", "HEAD"]),
        "python": platform.python_version(),
    }


# ------------------------------------------------------------ processes


def pin_to_one_cpu():
    """Pins this process, and so every process it starts, to one CPU.

    The daemon workloads wake a thread per hop; across CPUs of a virtual
    machine each hop can wait for the host to schedule a halted vCPU,
    which swamps the daemon's own costs with the host's load. On one CPU
    the hops are plain context switches. The sweeps are single-threaded
    and pinned the same way."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class PeakRss:
    """Samples a child's VmHWM (peak resident set) from /proc every 10 ms
    until it exits. VmHWM restarts at exec, so unlike the rusage of the
    child it does not include this Python process's own footprint."""

    def __init__(self, pid):
        self.path = f"/proc/{pid}/status"
        self.mib = 0.0
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.poll, daemon=True)
        self.thread.start()

    def sample(self):
        try:
            with open(self.path, encoding="utf-8") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        self.mib = max(self.mib, int(line.split()[1]) / 1024.0)
                        return True
        except OSError:
            pass
        return False  # gone, or a zombie without an address space

    def poll(self):
        while self.sample() and not self.stop.wait(0.01):
            pass

    def finish(self):
        self.stop.set()
        self.thread.join()
        return self.mib


def wait_exit(proc, timeout):
    """Blocks until `proc` exits (killing it after `timeout` s); returns
    its exit code and the CPU seconds it used (user + system). Blocking
    in wait4, rather than polling, wakes this process the moment the
    child exits, so short runs are timed to the microsecond."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_utime + ru.ru_stime


def helper(bins, args, timeout=170):
    """Runs the perfbench helper and returns its JSON."""
    r = subprocess.run([os.path.join(bins, "perfbench")] + args, capture_output=True,
                       text=True, timeout=timeout)
    if r.returncode != 0:
        raise BenchError(f"helper {args[0]} failed: {r.stderr.strip()[-400:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def calibrate(bins):
    """CPU time (ns) of one pass of the helper's fixed reference loop,
    which shares no code with the repository: how fast the host runs
    right now."""
    return helper(bins, ["calibrate"])["cpu_ns"]


def timed_round(bins, run_round):
    """Runs one round between two calibrations and records their mean."""
    before = calibrate(bins)
    rnd = run_round()
    rnd["cal_ns"] = (before + calibrate(bins)) / 2
    return rnd


def norm_cpu_us_per_op(rounds, cpu_ns, ops):
    """CPU µs per operation over all rounds, each round's CPU time scaled
    by CALIBRATION_REF_NS over the calibration measured around it: the
    host's speed changes within seconds, so each round gets its own."""
    scaled_us = sum(cpu_ns(r) * CALIBRATION_REF_NS / r["cal_ns"] for r in rounds) / 1e3
    return scaled_us / max(1, sum(ops(r) for r in rounds))


# ---------------------------------------------------------------- sweeps


def sweep_round(bins, spec, seed):
    """One run of a sweep binary: wall and CPU time, peak RSS, CSV."""
    argv = [os.path.join(bins, spec["bin"])] + spec["args"] + ["--seed", str(seed)]
    out_path = os.path.join(WORK, "sweep.csv")
    err_path = os.path.join(WORK, "sweep.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        peak = PeakRss(proc.pid)
        code, cpu = wait_exit(proc, 170)
        wall = time.perf_counter() - t0
    with open(out_path, encoding="utf-8") as f:
        csv = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.readlines()
    return {"wall": wall, "cpu": cpu, "rss": peak.finish(), "code": code, "csv": csv,
            "stderr": stderr}


def sweep_setup(bins, spec, seed):
    """Set-up times of a sweep binary: spawn to exit with zero sets per
    point, which runs everything but the scoring. SETUP_PER_ROUND samples."""
    argv = [os.path.join(bins, spec["bin"])] + spec["args"] + ["--seed", str(seed), "--sets", "0"]
    walls = []
    for _ in range(SETUP_PER_ROUND):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        code, _ = wait_exit(proc, 60)
        walls.append(time.perf_counter() - t0)
        if code != 0:
            raise BenchError(f"{spec['bin']} --sets 0 exited with {code}")
    return walls


def failed_points(csv, expected_csv, digest, spec, rnd):
    """Points of one sweep run that are wrong: rows that differ from the
    in-process replay, every point if the CSV misses its recorded
    digest or the run failed, and points reporting a caught panic."""
    points = spec["points"]
    if rnd["code"] != 0:
        return points
    if digest is not None and hashlib.sha256(csv.encode()).hexdigest() != digest:
        return points
    got = csv.splitlines()
    want = expected_csv.splitlines()
    bad = sum(1 for i in range(points + 1)
              if i >= len(got) or i >= len(want) or got[i] != want[i])
    panics = sum(1 for line in rnd["stderr"]
                 if "panicked" in line or ("panics=" in line and "panics=0)" not in line))
    return min(points, bad + panics)


def run_sweep(bins, name, spec, seed, seconds, trace):
    digest = recorded_digest(name, seed)
    # Untraced rounds; a traced run spends half its time on the replay.
    budget = seconds / 2 if trace else seconds
    rounds, setups = [], []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < budget:
        setups += sweep_setup(bins, spec, seed)
        rounds.append(timed_round(bins, lambda: sweep_round(bins, spec, seed)))
    setups += sweep_setup(bins, spec, seed)
    replays = []
    started = time.perf_counter()
    while not replays or (trace and time.perf_counter() - started < seconds / 2):
        replays.append(helper(bins, [spec["replay"], "--seed", str(seed)]))
    expected = replays[0]["csv"]

    attempted = spec["points"] * len(rounds)
    failed = sum(failed_points(r["csv"], expected, digest, spec, r) for r in rounds)
    failed += sum(int(rp["mismatches"]) for rp in replays)
    failed += sum(1 for rp in replays[1:] if rp["csv"] != expected)
    walls = sorted(r["wall"] for r in rounds)
    sets = spec["sets_per_round"]
    e2e = {
        "wall_s": (median(walls), "s"),
        "throughput_per_s": (median([sets / w for w in walls]), "1/s"),
        "latency_p50_us": (median(walls) * 1e6, "us"),
        "latency_p99_us": (nearest_rank(walls, 0.99) * 1e6, "us"),
        "cpu_us_per_op": (sum(r["cpu"] for r in rounds) / (sets * len(rounds)) * 1e6, "us"),
        "norm_cpu_us_per_op": (norm_cpu_us_per_op(rounds, lambda r: r["cpu"] * 1e9, lambda r: sets), "us"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["rss"] for r in rounds]), "MiB"),
    }
    notes = {"rounds": len(rounds), "latency_samples": len(walls), "setup_samples": len(setups),
             "digest": "recorded" if digest else "none for this seed"}
    layers = sweep_layers(replays, median(walls)) if trace else None
    return attempted, failed, e2e, layers, notes


def sweep_layers(replays, untraced_wall_s):
    """The per-layer table from the traced replays (medians over them)."""
    def med(f):
        return median([f(rp) for rp in replays])

    def calls(rp, layer):
        return rp["layers"].get(layer, {}).get("calls", 0)

    def ns(rp, layer):
        return rp["layers"].get(layer, {}).get("ns", 0)

    def per_call(layer):
        return med(lambda rp: ns(rp, layer) / calls(rp, layer) if calls(rp, layer) else 0.0)

    m = {}
    for layer in SWEEP_LAYERS:
        m[layer + "_ns"] = (per_call(layer), "ns")
        m[layer + "_share"] = (med(lambda rp: ns(rp, layer) / rp["wall_ns"]), "frac")
    sets = lambda rp: max(1, rp["counts"]["sets"])  # noqa: E731
    m["overhead.pd2_m_probes"] = (
        med(lambda rp: rp["counts"].get("pd2_m_probes", 0) / max(1, calls(rp, "overhead.pd2_required"))),
        "count")
    m["partition.accept_evals"] = (med(lambda rp: rp["counts"].get("accept_evals", 0) / sets(rp)), "count")
    m["partition.bins_opened"] = (med(lambda rp: rp["counts"].get("bins_opened", 0) / sets(rp)), "count")
    m["sim.pd2_ns_per_slot"] = (
        med(lambda rp: ns(rp, "sim.pd2_run") / (calls(rp, "sim.pd2_run") * rp["counts"]["horizon"])
            if calls(rp, "sim.pd2_run") else 0.0),
        "ns")
    m["sim.preemptions"] = (med(lambda rp: rp["counts"].get("preemptions", 0) / max(1, rp["counts"].get("sims", 0))), "count")
    m["sim.migrations"] = (med(lambda rp: rp["counts"].get("migrations", 0) / max(1, rp["counts"].get("sims", 0))), "count")
    m["sweep.set_p50_us"] = (med(lambda rp: rp["counts"]["set_p50_ns"] / 1e3), "us")
    m["sweep.set_p99_us"] = (med(lambda rp: rp["counts"]["set_p99_ns"] / 1e3), "us")
    m["trace_overhead_frac"] = (med(lambda rp: rp["wall_ns"] / 1e9) / untraced_wall_s - 1.0, "frac")
    return m


# ---------------------------------------------------------------- daemon


def start_daemon(bins, sock, metrics_out=None):
    """Starts a fresh admitd on Unix socket `sock` and waits until a
    client can connect; returns the process and the seconds that took."""
    argv = [os.path.join(bins, "admitd"), "--socket", sock, "--cpus", DAEMON_CPUS]
    if metrics_out:
        argv += ["--metrics-out", metrics_out]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        first = proc.stderr.readline()
        if not first.startswith(b"admitd: listening on"):
            raise BenchError(f"admitd did not start: {first!r}")
        while True:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(sock)
                return proc, time.perf_counter() - t0
            except OSError:
                if time.perf_counter() - t0 > 10:
                    raise
                time.sleep(0.0005)
            finally:
                probe.close()
    except BaseException:
        proc.kill()
        wait_exit(proc, 30)
        proc.stderr.close()
        raise


def daemon_setup(bins):
    """Set-up times of the daemon: spawn to the first successful connect.
    SETUP_PER_ROUND fresh daemons, each killed once ready."""
    samples = []
    for i in range(SETUP_PER_ROUND):
        sock = os.path.join(WORK, f"s{i}.sock")
        proc, setup = start_daemon(bins, sock)
        proc.kill()
        wait_exit(proc, 30)
        proc.stderr.close()
        os.unlink(sock)
        samples.append(setup)
    return samples


def daemon_round(bins, spec, seed, index, metrics_out=None):
    """A fresh admitd, driven by one closed-loop client, then shut down."""
    sock = os.path.join(WORK, f"d{index}.sock")
    proc, _ = start_daemon(bins, sock, metrics_out)
    try:
        drive = helper(bins, ["drive", "--socket", sock, "--daemon-pid", str(proc.pid),
                              "--window", str(spec["window"]),
                              "--requests", str(spec["requests"]), "--seed", str(seed)])
    except BaseException:  # the client never sent shutdown
        proc.kill()
        raise
    finally:
        code, _ = wait_exit(proc, 30)
        proc.stderr.close()
    drive.update(rss=drive["daemon_hwm_kib"] / 1024.0, code=code)
    return drive


def round_failures(rnd, digest=None):
    """Failed requests of one daemon round, at most all it attempted:
    error replies, requests without a reply (never sent, or sent and
    lost), verdicts the in-process core does not reproduce (all of them
    if the sequence misses its recorded digest), and any gap between the
    client's tally and the daemon's stats. Returns (failed, whether the
    tally and the stats disagree or could not be compared)."""
    attempted = int(rnd["attempted"])
    if digest is not None and rnd.get("verdict_digest") != digest:
        return attempted, False
    failed = rnd["errors"] + (attempted - rnd["replies"]) + (rnd.get("replay_mismatches") or 0)
    d = rnd.get("daemon")
    if d is None or rnd["problem"] or rnd["code"] != 0:
        return min(attempted, max(failed, 1)), True
    gap = (abs(d["task_count"] - rnd["client_active"]) + abs(d["requests"] - rnd["sent"])
           + abs(d["slot"] - d["batches"]))
    return min(attempted, int(failed + gap)), gap > 0


def recorded_digest(name, seed):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        return json.load(f).get(name, {}).get(str(seed))


def run_daemon(bins, name, spec, seed, seconds, trace):
    digest = recorded_digest(name, seed)
    rounds, traced, setups = [], [], []
    started = time.perf_counter()
    budget = seconds / 2 if trace else seconds
    while not rounds or time.perf_counter() - started < budget:
        setups += daemon_setup(bins)
        rounds.append(timed_round(bins, lambda: daemon_round(bins, spec, seed, len(rounds))))
    setups += daemon_setup(bins)
    if trace:
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < seconds / 2:
            out = os.path.join(WORK, f"metrics-{len(traced)}.json")
            rnd = daemon_round(bins, spec, seed, 1000 + len(traced), metrics_out=out)
            with open(out, encoding="utf-8") as f:
                rnd["metrics"] = json.load(f)
            traced.append(rnd)

    attempted = failed = 0
    tally_ok = True
    lat = []
    for rnd in rounds + traced:
        attempted += rnd["attempted"]
        f, gap = round_failures(rnd, digest)
        failed += f
        tally_ok &= not gap
        lat.extend(rnd["latency_ns"])
    # A failed request misses every latency limit: it counts as the
    # slowest possible, the whole round.
    worst = max(r["phase_ns"] for r in rounds + traced)
    lat = sorted(lat + [float("inf")] * failed)
    lat = [min(x, worst) for x in lat]
    phases = [r["phase_ns"] / 1e9 for r in rounds]
    e2e = {
        "wall_s": (median(phases), "s"),
        "throughput_per_s": (median([r["replies"] / (r["phase_ns"] / 1e9) for r in rounds]), "1/s"),
        "latency_p50_us": (nearest_rank(lat, 0.50) / 1e3, "us"),
        "latency_p99_us": (nearest_rank(lat, 0.99) / 1e3, "us"),
        "cpu_us_per_op": (sum(r["cpu_ns"] for r in rounds) / 1e3
                          / max(1, sum(r["replies"] for r in rounds)), "us"),
        "norm_cpu_us_per_op": (norm_cpu_us_per_op(rounds, lambda r: r["cpu_ns"], lambda r: r["replies"]), "us"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["rss"] for r in rounds]), "MiB"),
    }
    notes = {"rounds": len(rounds), "latency_samples": len(lat), "setup_samples": len(setups),
             "tally_matches_stats": tally_ok,
             "digest": "recorded" if digest else "none for this seed"}
    layers = daemon_layers(bins, spec, seed, rounds, traced) if trace else None
    return attempted, failed, e2e, layers, notes


def hist_quantile(h, q):
    """The daemon recorder's quantile rule (obs::HistogramSnap::quantile)."""
    if not h or h["count"] == 0:
        return 0.0
    rank = max(1, math.ceil(q * h["count"]))
    cum = 0
    for i, c in enumerate(h["counts"]):
        cum += c
        if cum >= rank:
            hi = h["bounds"][i] if i < len(h["bounds"]) else h["max"]
            return float(min(max(hi, h["min"]), h["max"]))
    return float(h["max"])


def daemon_layers(bins, spec, seed, rounds, traced):
    inproc = helper(bins, ["daemon-layers", "--seed", str(seed), "--requests", str(spec["requests"])])
    req_codec = inproc["request_codec_ns"] / inproc["codec_items"]
    reply_codec = inproc["reply_codec_ns"] / inproc["codec_items"]
    m = {
        "proto.request_codec_ns": (req_codec, "ns"),
        "proto.reply_codec_ns": (reply_codec, "ns"),
    }
    for b in ("b1", "b64"):
        c = inproc[f"core_{b}"]
        m[f"core.{b}.decide_ns"] = (c["decide_ns"] / c["requests"], "ns")
        m[f"core.{b}.admit_frac"] = (c["admit_frac"], "frac")

    def hist(rnd, name):
        return next((h for h in rnd["metrics"]["histograms"] if h["name"] == name), None)

    def counter(rnd, name):
        return next((c["value"] for c in rnd["metrics"]["counters"] if c["name"] == name), 0)

    decide_mean = median([hist(r, "daemon.decide_ns")["sum"] / max(1, hist(r, "daemon.decide_ns")["count"])
                          for r in traced])
    batches = median([counter(r, "daemon.batches") for r in traced])
    m["daemon.decide_mean_ns"] = (decide_mean, "ns")
    m["daemon.decide_p50_ns"] = (median([hist_quantile(hist(r, "daemon.decide_ns"), 0.5) for r in traced]), "ns")
    m["daemon.decide_p99_ns"] = (median([hist_quantile(hist(r, "daemon.decide_ns"), 0.99) for r in traced]), "ns")
    m["daemon.batch_size"] = (median([counter(r, "daemon.requests") / max(1, counter(r, "daemon.batches"))
                                           for r in traced]), "count")
    m["daemon.batches"] = (batches, "count")
    # Where a request's time goes at the client's median: codec both
    # ways, the decision (per request: one batch decides batch_size
    # requests, but each waits for the whole batch), and the rest —
    # transport, thread hops and intake wait.
    client_p50_ns = median([statistics.median(r["latency_ns"]) for r in traced])
    residual = client_p50_ns - req_codec - reply_codec - decide_mean
    m["daemon.residual_us"] = (residual / 1e3, "us")
    m["daemon.codec_share"] = ((req_codec + reply_codec) / client_p50_ns, "frac")
    m["daemon.decide_share"] = (decide_mean / client_p50_ns, "frac")
    m["daemon.residual_share"] = (residual / client_p50_ns, "frac")
    def cpu_per_request(rs):
        return sum(r["cpu_ns"] for r in rs) / max(1, sum(r["replies"] for r in rs))

    m["trace_overhead_frac"] = (cpu_per_request(traced) / cpu_per_request(rounds) - 1.0, "frac")
    return m


# ------------------------------------------------------------------ main


def declared(kind):
    """(name, unit) of the `end_to_end` or `per_layer` metrics BENCHMARK.json declares."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def main(argv=None):
    # A terminated run unwinds, so every child it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]
    try:
        bins = build()
        pin_to_one_cpu()
        os.makedirs(WORK, exist_ok=True)
        run = run_sweep if spec["kind"] == "sweep" else run_daemon
        attempted, failed, e2e, layers, notes = run(
            bins, args.workload, spec, args.seed, args.seconds, args.trace == 1)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    e2e["failed_frac"] = (failed / attempted if attempted else 1.0, "frac")
    table = layers if args.trace else e2e
    metrics = {n: {"value": table.get(n, (0.0, u))[0], "unit": u}
               for n, u in declared("per_layer" if args.trace else "end_to_end")}
    print(json.dumps({"fingerprint": fingerprint(), "workload": args.workload, "seed": args.seed,
                      **notes}))
    for n, (v, u) in table.items():
        print(f"  {n:32s} {v:>16.6g} {u}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
