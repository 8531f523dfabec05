#!/usr/bin/env python3
"""Benchmark of the bandwidth broker: builds the program in Release, runs
one workload, checks its outputs and prints one JSON result line.

  python3 perfbench/run.py --workload wire_mem --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench; each run works in a scratch directory
under it and removes it at the end. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(
    os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
    "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
QOSBBD = os.path.join(BUILD, "qosbbd")
NPROC = os.cpu_count() or 1
# At most nproc connections (and never more than 4); wire_* drives them
# from half as many threads, leaving a core to the daemon.
LOAD_THREADS = max(1, min(4, NPROC))
WIRE_THREADS = max(1, LOAD_THREADS // 2)
# ... and each keeps to its own CPUs, so runs do not differ by where the
# scheduler happened to place them.
SERVER_CPUS = {0} if NPROC > 1 else None
CLIENT_CPUS = set(range(1, NPROC)) if NPROC > 1 else None

# wire_*: a dumbbell whose L->R bottleneck holds about 9000 flows of the
# Table-1 mix, so it runs full and rejects occur.
WIRE_PAIRS = 64
WIRE_BOTTLENECK_MBPS = 400
WIRE_WINDOW = 128          # requests in flight per connection
WIRE_FILL_OPS = 100000     # untimed fill before wire_journal boots
REPLAY_OPS = 200000        # recorded ops replayed in process (traced run)
FED_DOMAINS = 3
FED_PAIRS = 2
WARMUP_S = 1.0

# The tail latency is logged, not reported: on a shared host it moves by
# up to a quarter between runs of one commit (see README.md).
E2E = [("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_us", "us"),
       ("cpu_us_per_op", "us"), ("rss_mb", "MB")]

PER_LAYER = [
    ("net.batch_size", "count"), ("net.server_busy", "ratio"),
    ("net.decode_ns_per_frame", "ns"), ("net.reply_ns_per_op", "ns"),
    ("net.other_us_per_op", "us"),
    ("front.submit_batch_ns_per_op", "ns"), ("front.release_ns", "ns"),
    ("front.occ_conflicts_per_kop", "1/kop"),
    ("engine.test_ns_rate", "ns"), ("engine.test_ns_delay", "ns"),
    ("engine.distinct_delays", "count"), ("engine.class_join_us", "us"),
    ("engine.class_leave_us", "us"),
    ("journal.batch_ns_per_op", "ns"), ("journal.append_us", "us"),
    ("journal.appends_per_op", "1/op"), ("journal.bytes_per_op", "B/op"),
    ("journal.recovery_s", "s"),
    ("federation.intra_us", "us"), ("federation.inter_us", "us"),
    ("federation.member_rtt_us", "us"),
    ("federation.member_calls_per_op", "1/op"),
    ("federation.coordinator_self_us", "us"),
    ("federation.prepare_failure_ratio", "ratio"),
    ("federation.prepares", "count"),
    ("federation.rejected_local_ratio", "ratio"),
    ("federation.inter_requests", "count"),
]


class BenchError(Exception):
    """The benchmark could not run (not a failed output check)."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "-j", str(NPROC)],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        raise BenchError("build failed")


class Daemon:
    """One qosbbd process; stop() sends SIGTERM and collects its stderr."""

    def __init__(self, run_dir, name, args, cpus=None):
        self.port_file = os.path.join(run_dir, name + ".port")
        self.err_path = os.path.join(run_dir, name + ".err")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.err = open(self.err_path, "w")
        self.proc = subprocess.Popen(
            [QOSBBD, "--port-file=" + self.port_file] + args,
            stdout=subprocess.DEVNULL, stderr=self.err)
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        self.stderr = ""

    @property
    def pid(self):
        return self.proc.pid

    def hwm_mb(self):
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.err.close()
        with open(self.err_path) as f:
            self.stderr = f.read()
        return self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.err.closed:
            self.err.close()


def start_driver(cmd, cpus=None, stdin=None, **kw):
    args = [DRIVER, cmd] + ["--%s=%s" % (k.replace("_", "-"), v)
                            for k, v in kw.items()]
    proc = subprocess.Popen(args, stdin=stdin, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    if cpus:
        try:
            os.sched_setaffinity(proc.pid, cpus)
        except OSError:
            proc.kill()
            proc.communicate()
            raise
    return proc


def finish_driver(proc, cmd, stdin=None):
    """Wait for a driver; its last stdout line is its JSON result."""
    try:
        out, err = proc.communicate(stdin, timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err[-4000:])
        raise BenchError("%s exited with %d" % (cmd, proc.returncode))
    return json.loads(lines[-1])


def driver(cmd, cpus=None, **kw):
    return finish_driver(start_driver(cmd, cpus, **kw), cmd)


def timed_launch(spawn, cmd, cpus=None, **kw):
    """Run a driver that measures the daemons' set-up. The driver starts
    first; once it says it is up, t0 is taken and spawn() launches the
    daemons, so set-up time covers their boot and not the driver's own
    start. The driver reads the daemons' pids on stdin. Returns (result,
    t0)."""
    proc = start_driver(cmd, cpus, stdin=subprocess.PIPE, **kw)
    try:
        if proc.stdout.readline().strip() != "up":
            raise BenchError("%s did not come up" % cmd)
        t0 = time.monotonic()
        pids = ",".join(str(d.pid) for d in spawn()) + "\n"
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return finish_driver(proc, cmd, pids), t0


def drain_stats(stderr):
    m = re.search(r"batches=(\d+) batched_requests=(\d+)", stderr)
    return {
        "batches": int(m.group(1)) if m else 0,
        "batched": int(m.group(2)) if m else 0,
        "crashed": "QOSBB_REQUIRE" in stderr or "terminate" in stderr,
    }


def state_digest(stderr):
    """The broker state digest qosbbd prints at drain, if it printed one."""
    m = re.search(r"state_digest=([0-9a-f]+)", stderr)
    return m.group(1) if m else None


def recovered_lsn(stderr):
    """Next LSN after journal recovery, from qosbbd's boot line."""
    m = re.search(r"journal recovered lsn=(\d+)", stderr)
    return int(m.group(1)) if m else None


class Result:
    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, part, what):
        """Fold one driver result (counts + check outcome) in."""
        self.attempted += int(part.get("attempted", 0))
        self.failed += int(part.get("failed", 0))
        if not part.get("correct", False):
            self.correct = False
            self.errors += ["%s: %s" % (what, e)
                            for e in part.get("errors", [])]

    def require(self, ok, why):
        if not ok:
            self.correct = False
            self.errors.append(why)


def end_to_end(run, t0, rss):
    """The end-to-end metrics of a timed driver run launched at t0."""
    log("latency tail p%g: %.1f us" % (100 * run["latency_tail_q"],
                                       run["latency_tail_us"]))
    return {
        "setup_s": run["t_ready_ns"] / 1e9 - t0,
        "ops_per_s": run["ops_per_s"],
        "latency_p50_us": run["latency_p50_us"],
        "cpu_us_per_op": run["cpu_us_per_op"],
        "rss_mb": rss,
    }


def wire_args():
    return {"pairs": WIRE_PAIRS, "bottleneck_mbps": WIRE_BOTTLENECK_MBPS}


def daemon_args():
    return ["--pairs=%d" % WIRE_PAIRS,
            "--bottleneck-mbps=%d" % WIRE_BOTTLENECK_MBPS]


def run_wire(run_dir, journal, seed, seconds, trace, res):
    """wire_mem / wire_journal. Returns (end-to-end, per-layer) dicts."""
    daemons = []
    try:
        jpath = os.path.join(run_dir, "journal")
        extra = ["--journal=" + jpath] if journal else []
        ledger_in = os.path.join(run_dir, "fill.ledger")
        run_ledger = os.path.join(run_dir, "run.ledger")
        record = os.path.join(run_dir, "requests.bin")
        if journal:
            # Untimed fill of the same seed: the journal the daemon boots on.
            d = Daemon(run_dir, "fill", daemon_args() + extra)
            daemons.append(d)
            fill = driver("wire-run", port_file=d.port_file, seed=seed,
                          fill_ops=WIRE_FILL_OPS, conns=LOAD_THREADS,
                          window=WIRE_WINDOW, phase=1, ledger_out=ledger_in,
                          journal=1, **wire_args())
            res.add(fill, "fill")
            res.require(d.stop() == 0, "fill daemon exited badly")
            fill_lsn = fill["journal_lsn"]
            if trace:
                shutil.copyfile(jpath, jpath + ".boot")
        size0 = os.path.getsize(jpath) if journal else 0

        def spawn():
            daemons.append(Daemon(run_dir, "run", daemon_args() + extra,
                                  SERVER_CPUS))
            return daemons[-1:]

        kw = dict(port_file=os.path.join(run_dir, "run.port"), seed=seed,
                  seconds=seconds, warmup=WARMUP_S, conns=LOAD_THREADS,
                  threads=WIRE_THREADS, window=WIRE_WINDOW, phase=2,
                  journal=int(journal), ledger_out=run_ledger, **wire_args())
        if journal:
            kw["ledger_in"] = ledger_in
        if trace:
            kw.update(record=record, record_ops=REPLAY_OPS)
        run, t0 = timed_launch(spawn, "wire-run", CLIENT_CPUS, **kw)
        d = daemons[-1]
        res.add(run, "run")
        log("admitted %d, rejected %d (%d for no feasible rate), torn down "
            "%d" % (run["admitted"], run["rejected"],
                    run["rejected_no_feasible"], run["torn_down"]))
        rss = d.hwm_mb()
        res.require(d.stop() == 0, "daemon exited badly")
        st = drain_stats(d.stderr)
        res.require(not st["crashed"], "daemon aborted")
        if journal:
            res.require(recovered_lsn(d.stderr) == fill_lsn,
                        "boot did not recover every record of the fill")
        ops = run["attempted"]
        if journal:
            # Restart on the run's journal: recovery must bring back every
            # flow of the ledger and every journaled record.
            bytes_per_op = (os.path.getsize(jpath) - size0) / max(1, ops)
            d2 = Daemon(run_dir, "restart", daemon_args() + extra)
            daemons.append(d2)
            fin = driver("wire-final", port_file=d2.port_file,
                         ledger=run_ledger)
            res.add(fin, "restart")
            res.require(d2.stop() == 0, "restarted daemon exited badly")
            res.require(recovered_lsn(d2.stderr) == run["journal_lsn"],
                        "restart did not recover every journaled record")
            # The digest needs a broker snapshot, which qosbbd cannot
            # always take (see README.md); compare it whenever both exist.
            at_drain, at_restart = state_digest(d.stderr), state_digest(
                d2.stderr)
            if at_drain and at_restart:
                res.require(at_drain == at_restart,
                            "state digest %s after restart, %s at drain" % (
                                at_restart, at_drain))
            else:
                log("state digest not compared: drain %s, restart %s" % (
                    at_drain, at_restart))
        e2e = end_to_end(run, t0, rss)
        layers = {}
        if trace:
            rkw = dict(record=record, mode="journal" if journal else "mem",
                       seed=seed,
                       trace_out=os.path.join(BUILD, "trace-%s.csv" % (
                           "wire_journal" if journal else "wire_mem")),
                       **wire_args())
            if journal:
                rkw.update(journal=jpath + ".boot", ledger_in=ledger_in)
            rep = driver("wire-replay", **rkw)
            res.require(rep.get("correct", False), "replay failed")
            layer_ns = rep["layer_ns_per_op"]
            layers = {
                "net.batch_size": st["batched"] / max(1, st["batches"]),
                "net.server_busy": run["daemon_cpu_s"] / run["window_s"],
                "net.decode_ns_per_frame": rep["decode_ns_per_frame"],
                "net.reply_ns_per_op": rep["reply_ns_per_op"],
                "net.other_us_per_op": run["cpu_us_per_op"] - layer_ns / 1e3,
                "engine.test_ns_rate": rep["engine_test_ns_rate"],
            }
            if journal:
                layers.update({
                    "journal.batch_ns_per_op": rep["batch_ns_per_op"],
                    "journal.append_us": rep["append_us"],
                    "journal.appends_per_op": rep["appends_per_op"],
                    "journal.bytes_per_op": bytes_per_op,
                    "journal.recovery_s": rep["recovery_s"],
                })
            else:
                layers.update({
                    "front.submit_batch_ns_per_op": rep["batch_ns_per_op"],
                    "front.release_ns": rep["release_ns"],
                    "front.occ_conflicts_per_kop":
                        rep["occ_conflicts_per_kop"],
                })
        return e2e, layers
    finally:
        for d in daemons:
            d.kill()


def run_federation(run_dir, seed, seconds, trace, res):
    daemons = []
    try:
        names = ["member%d" % i for i in range(FED_DOMAINS)]

        def spawn():
            for i, name in enumerate(names):
                daemons.append(Daemon(run_dir, name, [
                    "--topo=multidomain", "--domains=%d" % FED_DOMAINS,
                    "--domain-index=%d" % i, "--pairs=%d" % FED_PAIRS]))
            return daemons

        kw = dict(port_files=",".join(os.path.join(run_dir, n + ".port")
                                      for n in names),
                  domains=FED_DOMAINS, pairs=FED_PAIRS, seed=seed,
                  seconds=seconds, warmup=WARMUP_S, threads=LOAD_THREADS,
                  trace=1 if trace else 0)
        if trace:
            kw["trace_out"] = os.path.join(BUILD, "trace-federation.csv")
        run, t0 = timed_launch(spawn, "federation", **kw)
        res.add(run, "federation")
        rss = sum(d.hwm_mb() for d in daemons) + run["self_rss_mb"]
        for d in daemons:
            res.require(d.stop() == 0, "member daemon exited badly")
            res.require(not drain_stats(d.stderr)["crashed"],
                        "member daemon aborted")
        e2e = end_to_end(run, t0, rss)
        layers = {k: run[k] for k in run if k.startswith("federation.")}
        return e2e, layers
    finally:
        for d in daemons:
            d.kill()


def run_engine(run_dir, seed, seconds, trace, res):
    t0 = time.monotonic()
    kw = dict(seed=seed, seconds=seconds, warmup=WARMUP_S,
              threads=LOAD_THREADS, trace=1 if trace else 0)
    if trace:
        kw["trace_out"] = os.path.join(BUILD, "trace-engine_delay.csv")
    run = driver("engine", **kw)
    res.add(run, "engine")
    e2e = end_to_end(run, t0, run["self_rss_mb"])
    layers = {k: run[k] for k in run if k.startswith(("front.", "engine."))}
    return e2e, layers


WORKLOADS = {
    "wire_mem": lambda d, s, n, t, r: run_wire(d, False, s, n, t, r),
    "wire_journal": lambda d, s, n, t, r: run_wire(d, True, s, n, t, r),
    "federation": run_federation,
    "engine_delay": run_engine,
}


def self_test():
    build()
    r = subprocess.run([os.path.join(BUILD, "perfbench_selftest")])
    return r.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="feed every output check a wrong result")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        build()
        run_dir = os.path.join(BUILD, "runs", "%s-%d-%d" % (
            args.workload, args.seed, os.getpid()))
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        res = Result()
        try:
            e2e, layers = WORKLOADS[args.workload](
                run_dir, args.seed, args.seconds, bool(args.trace), res)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, KeyError, OSError,
            ValueError) as e:
        log("error: %s" % e)
        return 1
    for e in res.errors:
        log("check failed: " + e)

    if args.trace:
        # Set against the untraced runs' ops_per_s, this is the overhead.
        log("traced run: ops_per_s %.1f" % e2e["ops_per_s"])
        # A layer the workload does not exercise did no work: 0.
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in E2E}
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
