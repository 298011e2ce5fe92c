#!/usr/bin/env python3
"""Sweep ledger: end-to-end and per-layer benchmark of `greenhpc sweep`.

Run from the repository root:

    python3 sweepbench/run.py --workload grid_inproc --seed 2023 --seconds 15 --trace 0

The script builds the greenhpc CLI and the traced runner `sweep_ledger`
from source into .bench_build/ (or $CARGO_TARGET_DIR), runs one workload
of sweepbench/workloads.json and prints a ledger. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.

  --trace 0  end-to-end metrics of the real CLI, tracing off.
  --trace 1  the per-layer split from sweep_ledger, checked against an
             untraced run of the same grid.

See sweepbench/README.md for the workloads and the metric map.
"""

import argparse
import ctypes
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIG_PATH = os.path.join(HERE, "workloads.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
PR_SET_CHILD_SUBREAPER = 36

REFERENCE_SEED = 2023     # the seed the reference digests were taken with
THREADS = 2               # --threads of every workload: at most 3 busy threads
SETUP_REPEATS = 15        # one-case sweeps per run; setup_s is their minimum
RESUME_REPEATS = 20       # --resume runs per traced run; resume_s is their median
MIN_REPEATS = 3           # timed sweeps per run, however long they take
COMMAND_TIMEOUT_S = 60    # a sweep command running longer is killed
UNATTRIBUTED_BOUND = 0.05  # the traced run fails if more wall is uncovered

# Fleet-only layer numbers: printed in the ledger, not part of the JSON
# result (the in-process workloads do not pass through these layers).
FLEET_LEDGER = [
    ("core.wire.encode_s", "s"),
    ("core.wire.parse_s", "s"),
    ("core.wire.transit_s", "s"),
    ("obs.ship.encode_s", "s"),
    ("obs.ship.merge_s", "s"),
    ("core.coordinator.wall_s", "s"),
    ("core.coordinator.cpu_s", "s"),
    ("core.coordinator.worker_cpu_s", "s"),
    ("core.coordinator.worker_idle_share", "share"),
    ("core.coordinator.hb_rtt_p99_s", "s"),
    ("core.coordinator.max_lease_age_s", "s"),
]

# Axes cut to their first value for the set-up run.
LIST_AXES = ("--regions", "--kinds", "--nodes", "--jobs-list", "--sched")


class HarnessError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns the two binaries."""
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "greenhpc_cli.cpp"))):
        raise HarnessError("greenhpc sources (src/, tools/) not found beside sweepbench/")
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise HarnessError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "tools", "greenhpc"), os.path.join(bdir, "sweep_ledger")


class Result:
    def __init__(self, code, wall, cpu, rss_mb, stdout, stderr, strays):
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr
        self.strays = strays
        m = re.search(r"^digest: ([0-9a-f]{16})", stdout, re.M)
        self.digest = m.group(1) if m else None
        m = re.search(r"^quarantined: (\d+) case", stderr, re.M)
        self.quarantined = int(m.group(1)) if m else 0


class Runner:
    """Runs commands as children of this process. The process is a child
    subreaper, so anything a command leaves running is re-parented here,
    found after the command exits, killed and counted as a failure."""

    def __init__(self, workdir, timeout_s):
        self.workdir = workdir
        self.timeout_s = timeout_s
        self.current = None
        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
            raise HarnessError("prctl(PR_SET_CHILD_SUBREAPER) failed")
        signal.signal(signal.SIGALRM, self._timeout)

    def _timeout(self, *_):
        if self.current is not None:
            try:
                os.kill(self.current, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def run(self, argv):
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.workdir)
            self.current = proc.pid
            signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.current = None
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        # wait4 reports the command plus every child it reaped: CPU is the
        # sum, ru_maxrss the largest single process (KiB on Linux).
        return Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, stdout, stderr, self.kill_strays())

    @staticmethod
    def kill_strays():
        me = os.getpid()
        strays = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == me:
                strays.append(int(entry))
        for pid in strays:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        return strays


class Ledger:
    """Attempted/failed case accounting and the correctness verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, msg):
        self.problems.append(msg)
        log("FAIL: " + msg)

    def account(self, what, r, cases, expect=None):
        """Count a sweep command. A run that exits non-zero, prints no or
        the wrong digest, or leaves a process behind fails every case."""
        self.attempted += cases
        bad = None
        if r.code != 0:
            bad = f"exit code {r.code}"
        elif r.digest is None:
            bad = "no digest printed"
        elif expect is not None and r.digest != expect:
            bad = f"digest {r.digest} != {expect}"
        elif r.strays:
            bad = f"{len(r.strays)} process(es) outlived the run"
        if bad:
            self.failed += cases
            self.fail(f"{what}: {bad}; stderr tail: {r.stderr[-300:]!r}")
        else:
            self.failed += r.quarantined
            if r.quarantined:
                self.fail(f"{what}: {r.quarantined} case(s) quarantined")
        return r.digest if not bad else None

    def check(self, ok, msg):
        if not ok:
            self.fail(msg)


class Workload:
    def __init__(self, name, config, seed, greenhpc, workdir):
        spec = config["workloads"][name]
        self.name = name
        self.spec = spec
        self.config = config
        self.seed = seed
        self.greenhpc = greenhpc
        self.workdir = workdir
        self.grid = list(config["grids"][spec["grid"]])

    def grid_flags(self, one_case=False):
        flags = list(self.grid)
        if one_case:
            for i in range(0, len(flags) - 1):
                if flags[i] in LIST_AXES:
                    flags[i + 1] = flags[i + 1].split(",")[0]
                elif flags[i] == "--replicas":
                    flags[i + 1] = "1"
        return flags + ["--seed", str(self.seed)]

    def cases(self, one_case=False):
        flags = self.grid_flags(one_case)
        n = 1
        for i in range(len(flags) - 1):
            if flags[i] in LIST_AXES:
                n *= len(flags[i + 1].split(","))
            elif flags[i] == "--replicas":
                n *= int(flags[i + 1])
        return n

    def layout_flags(self):
        s = self.spec
        flags = ["--threads", str(THREADS), "--block", str(s["block"])]
        if s["workers"]:
            flags += ["--workers", str(s["workers"])]
        if not s["obs_ship"]:
            flags.append("--no-obs-ship")
        return flags

    def fresh_dir(self, tag):
        path = os.path.join(self.workdir, tag)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def sweep(self, one_case=False, resume_from=None, report=None):
        argv = [self.greenhpc, "sweep"] + self.grid_flags(one_case) + self.layout_flags()
        if resume_from is not None:
            argv += ["--journal", resume_from, "--resume"]
        elif self.spec["fleet_trace"]:
            argv += ["--fleet-trace-out", os.path.join(self.workdir, "fleet.json")]
        if report:
            argv += ["--report", report]
        return argv + ["--quiet"]

    def layout_text(self):
        s = self.spec
        if s["workers"]:
            per = max(1, THREADS // s["workers"])
            return (f"{s['workers']} worker processes x {per} thread(s) "
                    f"+ a mostly idle coordinator")
        return f"a {THREADS}-thread pool + the calling thread"


def median(values):
    return statistics.median(values) if values else 0.0


def run_untraced(wl, runner, ledger, seconds, min_reps, report=None):
    """Repeat the workload's sweep for `seconds` (at least min_reps
    times); returns per-rep walls, CPU, peak RSS and the digest. The
    first rep also writes `report` when given."""
    cases = wl.cases()
    walls, cpus, rsss = [], [], []
    digest = None
    deadline = time.perf_counter() + seconds
    while len(walls) < min_reps or time.perf_counter() < deadline:
        r = runner.run(wl.sweep(report=None if walls else report))
        got = ledger.account(f"{wl.name} sweep #{len(walls)}", r, cases, digest)
        digest = digest or got
        walls.append(r.wall)
        cpus.append(r.cpu)
        rsss.append(r.rss_mb)
    return walls, cpus, rsss, digest


def check_reference(wl, ledger, digest):
    if wl.seed == REFERENCE_SEED:
        ref = wl.spec["reference_digest"]
        ledger.check(digest == ref, f"{wl.name}: digest {digest} != reference {ref}")


def counterpart(wl):
    """The in-process workload whose digest this fleet workload must equal."""
    name = wl.spec.get("same_digest_as")
    if not name:
        return None
    return Workload(name, wl.config, wl.seed, wl.greenhpc, wl.workdir)


def end_to_end(wl, runner, ledger, seconds):
    setup = []
    setup_digest = None
    for i in range(SETUP_REPEATS):
        r = runner.run(wl.sweep(one_case=True))
        got = ledger.account(f"{wl.name} set-up #{i}", r, wl.cases(one_case=True), setup_digest)
        setup_digest = setup_digest or got
        setup.append(r.wall)
    walls, cpus, rsss, digest = run_untraced(wl, runner, ledger, seconds, MIN_REPEATS)
    check_reference(wl, ledger, digest)
    other = counterpart(wl)
    if other is not None:
        r = runner.run(other.sweep())
        ledger.account(f"{wl.name} == {other.name}", r, other.cases(), digest)
    log(f"{wl.name}: {len(walls)} timed sweeps, {len(setup)} set-ups, "
        f"{sum(w > 2 * min(setup) for w in setup)} of them stalled")
    # The minimum, not the median: a one-case fleet set-up is bimodal (a
    # worker that gets no block can sleep one heartbeat interval before it
    # exits, see README.md), and the share of stalled set-ups changes from
    # minute to minute. The minimum is the fast mode unless all of them stall.
    return {
        "sweep_wall_s": median(walls),
        "cpu_s": median(cpus),
        "setup_s": min(setup),
        "peak_rss_mb": median(rsss),
    }, {"sweeps": len(walls), "cases_per_s": wl.cases() / median(walls)}


def per_layer(wl, runner, ledger, seconds, ledger_bin):
    # Untraced runs of the same grid: the digest, and in-process the wall
    # the traced run is compared with. The sim.* counters come from an
    # untraced in-process run: the first rep's report, or for a fleet
    # workload its in-process counterpart's, which also checks the
    # cross-path digest identity.
    report_path = os.path.join(wl.workdir, "report.json")
    other = counterpart(wl)
    walls, _, _, digest = run_untraced(wl, runner, ledger, seconds / 3,
                                       1 if other else MIN_REPEATS,
                                       report=None if other else report_path)
    check_reference(wl, ledger, digest)
    if other is not None:
        r = runner.run(other.sweep(report=report_path))
        ledger.account(f"{wl.name} == {other.name}", r, other.cases(), digest)
    counters = {}
    if os.path.isfile(report_path):
        with open(report_path) as f:
            counters = json.load(f).get("metrics", {}).get("counters", {})

    s = wl.spec
    ledger_dir = wl.fresh_dir("ledger")
    argv = [ledger_bin, "--mode", "fleet" if s["workers"] else "inproc",
            "--workdir", ledger_dir, "--greenhpc", wl.greenhpc]
    argv += wl.grid_flags() + wl.layout_flags()
    if s["fleet_trace"]:
        argv.append("--fleet-trace")
    r = runner.run(argv)
    ledger.attempted += wl.cases()
    lines = r.stdout.strip().splitlines()
    try:
        traced = json.loads(lines[-1]) if r.code == 0 and lines else None
    except json.JSONDecodeError:
        traced = None
    if traced is None or r.strays:
        ledger.failed += wl.cases()
        ledger.fail(f"sweep_ledger failed (exit {r.code}): {r.stderr[-300:]!r}")
        raise HarnessError("traced run failed")
    ledger.failed += int(traced["core.cases_quarantined"])
    ledger.check(traced["digest"] == digest,
                 f"traced digest {traced['digest']} != untraced {digest}")
    ledger.check(traced["resume_digest"] == digest,
                 f"journal re-fold digest {traced['resume_digest']} != {digest}")
    if "coordinator_digest" in traced:
        ledger.check(traced["coordinator_digest"] == digest,
                     f"coordinator digest {traced['coordinator_digest']} != {digest}")
    ledger.check(traced["caches_ok"], "a case generated an asset outside the timed cache calls")
    ledger.check(traced["hpcsim.span_ticks"] == counters.get("sim.span_ticks"),
                 f"traced span ticks {traced['hpcsim.span_ticks']} != untraced "
                 f"sim.span_ticks {counters.get('sim.span_ticks')}")
    # `greenhpc sweep --resume` over the complete journal the traced run
    # wrote for this grid (chained in-process, shard union for a fleet).
    jdir = os.path.join(ledger_dir, "replay" if s["workers"] else "journal")
    resumes = []
    for k in range(RESUME_REPEATS):
        rr = runner.run(wl.sweep(resume_from=jdir))
        ledger.account(f"{wl.name} resume #{k}", rr, wl.cases(), digest)
        resumes.append(rr.wall)
    traced["core.journal.resume_s"] = median(resumes)
    ledger.check(traced["unattributed_share"] <= UNATTRIBUTED_BOUND,
                 f"unattributed share {traced['unattributed_share']:.4f} > "
                 f"{UNATTRIBUTED_BOUND}")
    # In-process: traced wall against the untraced CLI wall. Fleet: the
    # serial replay against the CPU the real fleet spent on the same work.
    base = traced["reference_s"] if s["workers"] else median(walls)
    traced["trace_overhead"] = traced["wall_s"] / base - 1.0
    return traced


def print_ledger(wl, metrics, units, extra):
    cores = os.cpu_count() or 1
    print(f"host: {cores} cores; {wl.name}: {wl.layout_text()}; seed {wl.seed}; "
          f"{wl.cases()} cases")
    if cores < 3:
        print("parallel numbers (sweep_wall_s, util.pool_busy_share, worker idle): "
              "not measurable here")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:.6g} {units.get(name, '')}")
    for name, value in extra.items():
        print(f"  {name:38s} {value:.6g} {units.get(name, '')}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2023)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(CONFIG_PATH) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        raise HarnessError(f"unknown workload {args.workload!r}; "
                           f"have {', '.join(config['workloads'])}")
    try:
        with open(BENCHMARK_PATH) as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        raise HarnessError(f"cannot read the metric list from BENCHMARK.json: {e}")
    greenhpc, ledger_bin = build()

    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir, COMMAND_TIMEOUT_S)
    ledger = Ledger()
    wl = Workload(args.workload, config, args.seed, greenhpc, workdir)
    units = {m["name"]: m["unit"] for m in declared}
    try:
        if args.trace == 0:
            measured, extra = end_to_end(wl, runner, ledger, args.seconds)
        else:
            measured = per_layer(wl, runner, ledger, args.seconds, ledger_bin)
            units.update(FLEET_LEDGER)
            extra = {name: measured[name] for name, _ in FLEET_LEDGER if name in measured}
        metrics = {m["name"]: measured[m["name"]] for m in declared}
    finally:
        Runner.kill_strays()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    extra["failed_share"] = ledger.failed / max(1, ledger.attempted)
    print_ledger(wl, metrics, units, extra)
    print(json.dumps({
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as e:
        log(f"sweepbench: {e}")
        sys.exit(2)
