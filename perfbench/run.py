#!/usr/bin/env python3
"""Cold-process benchmark of decarb-cli: the paper's figures, scenario
sweeps on hourly and 5-minute containers, and the placement service.

    python3 perfbench/run.py --workload repro|sweep-hourly|sweep-5min \\
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds `decarb-cli` and the `perfbench`
helper (release, into $CARGO_TARGET_DIR, default `.bench_build`), writes
its inputs and results under `.bench_work/`, and prints one JSON object
as the last line of stdout. `--trace 0` measures the end-to-end metrics
on cold processes; `--trace 1` runs the traced in-process replay for the
per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))
import checks  # noqa: E402

# The seed whose sweep reports are pinned in reference/.
REFERENCE_SEED = 1

# Set-up runs and daemon spawns per measured run; `setup_s` is the sum
# of their medians.
SETUP_REPEATS = 3
SPAWN_REPEATS = 3

# Cold runs of the measured command, at least, that the traced run
# compares its named spans with.
COVERAGE_RUNS = 3

# Shares of --seconds given to the cold command repeats and to the
# closed-loop placement load.
COMMAND_SHARE = 0.6
SERVE_SHARE = 0.25

# Each sweep workload runs this matrix: 3 workloads x 6 policies x 3
# region sets x 2 overhead models x 2 capacities = 216 scenarios.
# Poisson arrivals are seeded from the workload seed; `per_origin` is
# sized so the last arrival lands well inside the horizon, so the file
# passes `scenario check` with no diagnostics.
MATRIX = """[defaults]
year = {year}
horizon = {horizon}
forecaster = seasonal
slo_ms = 120

[workload batch]
class = batch
per_origin = {batch}
arrival = poisson:0.125
arrival_seed = {seed_batch}
length = 8
slack = day
interruptible = true

[workload interactive]
class = interactive
per_origin = {interactive}
arrival = poisson:0.375
arrival_seed = {seed_interactive}

[workload mixed]
class = mixed
per_origin = {mixed}
arrival = poisson:0.1875
arrival_seed = {seed_mixed}
length = 4
slack = day
seed = {seed_mix}

[matrix bench]
workloads = batch, interactive, mixed
policies = all
regions = europe, us, global
overheads = zero, realistic
capacities = 4, 16
"""
SCENARIOS = 216

WORKLOADS = {
    # `run all` on the builtin dataset; set-up is `run table1`, which
    # pays process start, builtin synthesis and the experiment context.
    "repro": {"resolution": None, "sweep": None},
    # Three years of the hourly trace (2020-2022), so a run lasts seconds.
    "sweep-hourly": {"resolution": None, "sweep": {"year": 2020, "horizon": 26304}},
    # 2022 on a 5-minute container (12x the samples).
    "sweep-5min": {"resolution": 5, "sweep": {"year": 2022, "horizon": 8760}},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build():
    """Builds both binaries; returns (decarb-cli, perfbench) paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "decarb-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         str(HERE / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return target / "release" / "decarb-cli", target / "release" / "perfbench"


def cold(argv):
    """Runs `argv` as a cold child; returns (wall s, CPU s, max RSS MB,
    exit code, stdout bytes, stderr text)."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, child.returncode,
            out_path.read_bytes(), err_path.read_text(errors="replace"))


def scenario_file(name, seed):
    spec = WORKLOADS[name]["sweep"]
    years = spec["horizon"] / 8760
    text = MATRIX.format(
        year=spec["year"],
        horizon=spec["horizon"],
        batch=int(900 * years),
        interactive=int(2700 * years),
        mixed=int(1350 * years),
        seed_batch=seed * 4 + 1,
        seed_interactive=seed * 4 + 2,
        seed_mixed=seed * 4 + 3,
        seed_mix=seed * 4 + 4,
    )
    path = WORK / f"{name}-{seed}.scenario"
    path.write_text(text)
    return path


class Workload:
    def __init__(self, name, seed, cli, helper):
        self.name, self.seed, self.cli, self.helper = name, seed, cli, helper
        self.spec = WORKLOADS[name]
        self.container = WORK / f"{name}.dct" if self.spec["sweep"] else None
        self.scenario = scenario_file(name, seed) if self.spec["sweep"] else None
        self.commands = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, argv):
        self.commands.append([str(a) for a in argv])

    def count(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    def setup_argv(self):
        if not self.spec["sweep"]:
            return [self.cli, "run", "table1"]
        argv = [self.cli, "data", "pack", "builtin"]
        if self.spec["resolution"]:
            argv += ["--resolution", str(self.spec["resolution"])]
        return argv + ["-o", self.container]

    def command_argv(self):
        if not self.spec["sweep"]:
            return [self.cli, "run", "all"]
        return [self.cli, "--data", self.container, "scenario", "run", "--file",
                self.scenario, "--json"]

    def serve_argv(self):
        data = ["--data", self.container] if self.container else []
        return [self.cli, "serve", *data, "--addr", "127.0.0.1:0",
                "--threads", str(os.cpu_count() or 1)]

    def setup(self, repeats):
        """Runs the set-up command `repeats` times; returns the walls."""
        argv = self.setup_argv()
        self.record(argv)
        walls = []
        for _ in range(repeats):
            wall, _, _, code, out, err = cold(argv)
            problems = [] if code == 0 else [f"set-up exited {code}: {err.strip()[-200:]}"]
            if code == 0 and not self.spec["sweep"]:
                problems += checks.check_bytes(
                    out, (REFERENCE / "run_table1.txt").read_bytes(), "run table1")
            self.count(problems)
            walls.append(wall)
            # Write the packed container back now, outside every timed
            # run, so no later run absorbs this one's writeback.
            os.sync()
        return walls

    def command(self, budget, runs=1):
        """Cold runs of the measured command, as many as are expected to
        fit in `budget` seconds (at least `runs`); returns the wall
        seconds, CPU seconds and max RSS of each run."""
        argv = self.command_argv()
        self.record(argv)
        walls, cpus, rss = [], [], []
        reference = None
        if self.spec["sweep"] and self.seed == REFERENCE_SEED:
            reference = json.loads((REFERENCE / f"{self.name}.json").read_text())
        started = time.perf_counter()
        while (len(walls) < runs
               or time.perf_counter() - started + statistics.mean(walls) <= budget):
            wall, cpu, maxrss, code, out, err = cold(argv)
            if code != 0:
                problems = [f"command exited {code}: {err.strip()[-200:]}"]
            elif self.spec["sweep"]:
                problems = checks.check_sweep(out, SCENARIOS, reference)
                # `scenario run` prints check diagnostics as warnings.
                problems += [line for line in err.splitlines() if line.startswith("warning")]
            else:
                problems = checks.check_bytes(
                    out, (REFERENCE / "run_all.txt").read_bytes(), "run all")
            self.count(problems)
            walls.append(wall)
            cpus.append(cpu)
            rss.append(maxrss)
        return walls, cpus, rss

    def spawn_daemon(self):
        """Starts the daemon; returns (process, address, seconds from
        spawn until the first 200 answer to POST /v1/place)."""
        argv = self.serve_argv()
        start = time.perf_counter()
        child = subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, cwd=ROOT, text=True)
        line = child.stdout.readline()
        if "http://" not in line:
            stop_daemon(child)
            fail(f"daemon did not start: {line!r}")
        host, port = line.split("http://")[1].split()[0].rsplit(":", 1)
        body = b'{"origin":"DE","arrival_hour":0,"duration_hours":1,"slack_hours":0,"slo_ms":0}'
        request = (b"POST /v1/place HTTP/1.1\r\nhost: bench\r\ncontent-length: %d\r\n"
                   b"connection: close\r\n\r\n%s" % (len(body), body))
        while True:
            try:
                with socket.create_connection((host, int(port)), timeout=10) as s:
                    s.sendall(request)
                    answer = s.recv(64)
                if answer.startswith(b"HTTP/1.1 200"):
                    break
            except OSError:
                pass
            if time.perf_counter() - start > 120:
                stop_daemon(child)
                fail("daemon never answered 200")
            time.sleep(0.001)
        return child, f"{host}:{port}", time.perf_counter() - start

    def helper_json(self, argv):
        argv = [str(a) for a in argv]
        self.record(argv)
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            fail(f"{' '.join(argv[:2])} failed: {done.stderr.strip()[-300:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def slots_per_hour(self):
        return 60 // (self.spec["resolution"] or 60)

    def data_args(self):
        return ["--data", self.container] if self.container else ["--builtin"]

    def serve(self, seconds, ladder):
        """Ready time (median of several spawns), then placement load on
        the last daemon; answers verified in-process afterwards."""
        self.record(self.serve_argv())
        spawns = 1 if ladder else SPAWN_REPEATS
        readies = []
        for i in range(spawns):
            daemon, addr, ready = self.spawn_daemon()
            readies.append(ready)
            if i + 1 < spawns:
                stop_daemon(daemon)
        answers = WORK / f"{self.name}-{self.seed}.answers"
        try:
            load = self.helper_json(
                [self.helper, "load", "--addr", addr, "--seed", self.seed,
                 "--slots-per-hour", self.slots_per_hour(), "--seconds", seconds,
                 "--answers", answers] + (["--ladder"] if ladder else []))
        finally:
            daemon_rss = stop_daemon(daemon)
        verify = self.helper_json(
            [self.helper, "verify", *self.data_args(), "--seed", self.seed,
             "--answers", answers])
        for window in (load["warmup"], load["closed"]):
            self.attempted += int(window["due"])
            self.failed += int(window["failed"])
        self.failed += int(verify["wrong"]) + int(load["inconsistent"])
        if verify["wrong"] or load["inconsistent"]:
            self.problems.append(
                f"{verify['wrong']} placement answers differ from Snapshot::place, "
                f"{load['inconsistent']} differ between repeats")
        return readies, daemon_rss, load


def stop_daemon(child):
    """Stops the daemon and reaps it; returns its max RSS, MB."""
    child.send_signal(signal.SIGTERM)
    try:
        child.stdout.close()
    except OSError:
        pass
    _, _, usage = os.wait4(child.pid, 0)
    child.returncode = 0
    return usage.ru_maxrss / 1024


def host_record(seed, seconds, trace):
    def first(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip() or None
        except OSError:
            return None

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
        mem_kb = next(int(l.split()[1]) for l in Path("/proc/meminfo").read_text().splitlines()
                      if l.startswith("MemTotal"))
    except (OSError, StopIteration):
        mem_kb = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "platform": platform.platform(),
        "rustc": first(["rustc", "--version"]),
        "git_rev": first(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(w, seconds):
    setup_walls = w.setup(SETUP_REPEATS)
    walls, cpus, rss = w.command(seconds * COMMAND_SHARE)
    readies, daemon_rss, load = w.serve(max(1.0, seconds * SERVE_SHARE), ladder=False)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        # Everything paid before the measured work: preparing the data
        # and starting the daemon until it answers.
        "setup_s": metric(statistics.median(setup_walls) + statistics.median(readies), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
        "serve_rss_mb": metric(daemon_rss, "MB"),
    }
    detail = {"setup_walls": setup_walls, "walls": walls, "cpus": cpus, "rss_mb": rss,
              "ready": readies, "load": load}
    return metrics, detail


def traced(w, seconds):
    w.setup(1)
    walls, _, _ = w.command(seconds * COMMAND_SHARE, runs=COVERAGE_RUNS)
    spans = WORK / f"{w.name}-{w.seed}.spans.json"
    argv = [w.helper, "trace", "--seed", w.seed, "--spans", spans]
    if w.spec["sweep"]:
        argv += ["--container", w.container, "--scenario", w.scenario]
        if w.spec["resolution"]:
            argv += ["--resolution", w.spec["resolution"]]
    replay = w.helper_json(argv)
    readies, _, load = w.serve(max(1.0, seconds * SERVE_SHARE), ladder=True)
    metrics = replay["metrics"]
    # Coverage compares the replay's named spans with the real command
    # run cold, so work the replay leaves out shows as uncovered. It
    # takes the fastest cold run: interference from the host only adds
    # time, and must not pass for work the replay misses.
    fastest = min(walls)
    coverage = replay["command_named_s"] / fastest
    untraced = statistics.median(walls)
    lowest = load["rungs"][0]
    metrics.update({
        "cli.uncovered_s": metric(fastest - replay["command_named_s"], "s"),
        "trace.coverage": metric(coverage, "ratio"),
        "trace.overhead_frac": metric((replay["command_s"] - untraced) / untraced, "ratio"),
        "serve.wire_us": metric(lowest["p50_us"] - metrics["serve.handle_us.p50"]["value"], "us"),
        "serve.e2e_p50_us": metric(load["closed"]["p50_us"], "us"),
        "serve.e2e_p99_us": metric(load["closed"]["p99_us"], "us"),
        "serve.closed_rps": metric(load["closed"]["rate"], "req/s"),
        "serve.ready_s": metric(readies[0], "s"),
        "bench.gen_lag_p99_us": metric(lowest["gen_lag_p99_us"], "us"),
        "bench.sustained_rps": metric(load["sustained_rps"], "req/s"),
    })
    w.attempted += 1
    if coverage < 0.9:
        w.failed += 1
        w.problems.append(f"named spans cover {coverage:.1%} of the cold command's wall (< 90%)")
    detail = {"untraced_walls": walls, "replay": {k: v for k, v in replay.items() if k != "metrics"},
              "spans_file": str(spans.relative_to(ROOT)), "load": load}
    return metrics, detail


def capture(cli):
    """Writes reference/ from this commit's outputs (seed REFERENCE_SEED)."""
    REFERENCE.mkdir(exist_ok=True)
    for name, argv in (("run_table1.txt", ["run", "table1"]), ("run_all.txt", ["run", "all"])):
        (REFERENCE / name).write_bytes(cold([cli, *argv])[4])
    for name in ("sweep-hourly", "sweep-5min"):
        w = Workload(name, REFERENCE_SEED, cli, None)
        w.setup(1)
        out = cold(w.command_argv())[4]
        (REFERENCE / f"{name}.json").write_text(
            json.dumps(checks.emissions_by_name(out), indent=0, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true",
                        help="rewrite reference/ from this commit's outputs")
    args = parser.parse_args()
    # A terminated run still stops its daemon (the `finally` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (HERE / "Cargo.toml").exists() or not (ROOT / "Cargo.toml").exists():
        fail("run from a full checkout of the repository")
    WORK.mkdir(exist_ok=True)
    cli, helper = build()
    if args.capture_reference:
        capture(cli)
        return
    if not args.workload:
        parser.error("--workload is required")
    w = Workload(args.workload, args.seed, cli, helper)
    started = time.perf_counter()
    metrics, detail = (traced if args.trace else measure)(w, args.seconds)
    fail_frac = w.failed / max(1, w.attempted)
    record = {
        "workload": w.name,
        "host": host_record(args.seed, args.seconds, args.trace),
        "commands": w.commands,
        "elapsed_s": time.perf_counter() - started,
        "attempted": w.attempted,
        "failed": w.failed,
        "fail_frac": fail_frac,
        "problems": w.problems,
        "metrics": metrics,
        "detail": detail,
    }
    results = WORK / f"results-{w.name}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in sorted(metrics.items()):
        print(f"{w.name:<13} {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"{w.name:<13} {'fail_frac':<30} {fail_frac:>14.6g} ratio")
    for problem in w.problems:
        log(f"problem: {problem}")
    print(json.dumps({"correct": w.failed == 0, "attempted": w.attempted,
                      "failed": w.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
