#!/usr/bin/env python3
"""Benchmark of the spec-driven experiment layer, from spec file to JSON
document: end to end with ``--trace 0``, layer by layer with ``--trace 1``.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --record --workload mc_sweep

Run it from the repository root. It builds the harness package in
perfbench/harness with the release profile (into $CARGO_TARGET_DIR, by
default target/perfbench), writes the workload's spec for the seed, and
spawns fresh harness processes at pool width 2 until the time is spent.
Every output document is checked against perfbench/refs. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units
come from BENCHMARK.json. ``--record`` re-records a workload's
references instead. perfbench/README.md describes workloads and metrics.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import refcheck

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pool width of every timed process: fixed, never the host's core count.
JOBS = 2
# Input variants per workload: --seed picks variant (seed mod count).
# exact_dense's answers do not depend on the seed, and one splitting
# cell's cost follows its random genealogy (README.md), so those two
# run one input for every seed.
VARIANTS = {"mc_sweep": 8, "scenario_mc": 8, "rare_split": 1, "exact_dense": 1}
# Timed processes a run makes even when --seconds is spent sooner.
MIN_PROCESSES = 3
# No process starts if it is predicted to end more than HARD_LIMIT_S
# after the run began, and one still running KILL_AFTER_S after it is
# killed, so a run ends within three minutes.
HARD_LIMIT_S = 140.0
KILL_AFTER_S = 170.0

SEED_LINE = re.compile(r"^seed = (\d+)( # variant seed.*)$", re.M)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", os.path.join("target", "perfbench")))


def build():
    """Builds the harness; exits without a result if that fails."""
    manifest = os.path.join(HERE, "harness", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: the harness does not build")
    return os.path.join(target_dir(), "release", "perfbench")


def instantiate(workload, seed, work):
    """Writes the workload's spec for ``seed``; returns (path, variant)."""
    variant = seed % VARIANTS[workload]
    with open(os.path.join(HERE, "specs", workload + ".toml"), encoding="utf-8") as f:
        text = f.read()
    text, n = SEED_LINE.subn(lambda m: f"seed = {int(m.group(1)) + variant}{m.group(2)}", text)
    if n != 1:
        sys.exit(f"perfbench: specs/{workload}.toml needs exactly one variant-seed line")
    path = os.path.join(work, workload + ".toml")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path, variant


def host_steal_s():
    """Seconds of hypervisor steal summed over the host's CPUs so far."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def spawn(argv, stdout_path, timeout):
    """Runs one harness process to its end, killing it after ``timeout``
    seconds.

    Returns (exit code, resource usage, the PERFBENCH report or None)."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    with open(stdout_path, "rb") as f:
        lines = f.read().decode("utf-8", "replace").splitlines()
    if proc.returncode == 0 and lines and lines[-1].startswith("PERFBENCH "):
        report = json.loads(lines[-1][len("PERFBENCH "):])
    return proc.returncode, usage, report


def failures(json_path, reference):
    """Reference cells the output document disagrees with; all of them
    when it is missing or unreadable."""
    try:
        with open(json_path, encoding="utf-8") as f:
            got = refcheck.records(json.load(f))
    except (OSError, ValueError, KeyError, TypeError):
        return len(reference)
    return refcheck.count_failures(got, reference)


def remove(path):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


class Clock:
    """The run's time budget: --seconds, never past HARD_LIMIT_S."""

    def __init__(self, seconds):
        self.start = time.monotonic()
        self.seconds = seconds

    def elapsed(self):
        return time.monotonic() - self.start

    def kill_in(self):
        return max(1.0, KILL_AFTER_S - self.elapsed())

    def has_room(self, predicted, done, minimum):
        end = self.elapsed() + predicted
        if end > HARD_LIMIT_S:
            return done == 0
        return done < minimum or end <= self.seconds


def measure(harness, spec, work, reference, clock):
    """End-to-end metrics: timed processes, each followed by a set-up
    probe, so that both sample the whole run."""
    out_json = os.path.join(work, "out.json")
    runs = []
    attempted = failed = 0
    while clock.has_room(statistics.median(r["duration"] for r in runs) if runs else 0.0, len(runs), MIN_PROCESSES):
        remove(out_json)
        steal0, began = host_steal_s(), time.monotonic()
        code, usage, report = spawn(
            [harness, "run", spec, "--jobs", str(JOBS), "--out", out_json],
            os.path.join(work, "run.txt"),
            clock.kill_in(),
        )
        steal = host_steal_s() - steal0
        attempted += len(reference)
        failed += failures(out_json, reference) if report else len(reference)
        _, _, probe = spawn(
            [harness, "setup", spec],
            os.path.join(work, "setup.txt"),
            clock.kill_in(),
        )
        # A failed process or probe measures nothing: None, left out of
        # the medians.
        runs.append({
            "duration": time.monotonic() - began,
            "wall_s": report["wall_s"] if report else None,
            "cpu_s": usage.ru_utime + usage.ru_stime if report else None,
            "peak_rss_mb": report["peak_rss_mb"] if report else None,
            "setup_s": probe["setup_s"] if probe else None,
            "steal_s": steal,
        })
    names = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
    summary = [f"{len(runs)} timed processes at --jobs {JOBS}, each followed by a set-up probe"]
    for name in names + ("steal_s",):
        summary.append(f"{name:<12} per process: " + " ".join(
            "failed" if r[name] is None else f"{r[name]:.4g}" for r in runs))
    every_ok = all(r[name] is not None for r in runs for name in names)
    measured = {name: [r[name] for r in runs if r[name] is not None] for name in names}
    if not all(measured.values()):
        return None, attempted, failed, False, summary
    # median_low: every reported value is one process's measurement.
    metrics = {name: statistics.median_low(values) for name, values in measured.items()}
    return metrics, attempted, failed, every_ok, summary


def per_layer(w1, w2, untraced_wall):
    """Per-layer metrics of one traced round (width-1 and width-2 pass)."""
    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    sampled_busy = w1["montecarlo.busy_s"] + w1["scenario.busy_s"]
    sampled_blocks = w1["montecarlo.blocks"] + w1["scenario.blocks"]
    ns_per_gap = ratio(w1["oracle.s"], w1["oracle.gaps"], 1e9)
    layer_sum = sum(w1[k] for k in (
        "io_s", "spec.parse_s", "spec.expand_s", "spec.plan_s", "exact.busy_s", "montecarlo.busy_s",
        "scenario.busy_s", "splitting.busy_s", "analytic.busy_s", "experiment.table_s", "experiment.json_s"))
    m = {k: w1[k] for k in (
        "spec.parse_s", "spec.expand_s", "spec.plan_s", "spec.cells",
        "exact.busy_s", "exact.solves",
        "montecarlo.busy_s", "montecarlo.rounds", "montecarlo.blocks",
        "scenario.busy_s", "scenario.rounds", "scenario.blocks",
        "splitting.busy_s", "splitting.rounds", "splitting.levels", "splitting.hits",
        "analytic.busy_s", "experiment.table_s", "experiment.json_s", "experiment.json_bytes")}
    m.update({
        "exact.us_per_solve": ratio(w1["exact.busy_s"], w1["exact.solves"], 1e6),
        "montecarlo.ns_per_round": ratio(w1["montecarlo.busy_s"], w1["montecarlo.rounds"], 1e9),
        "scenario.ns_per_round": ratio(w1["scenario.busy_s"], w1["scenario.rounds"], 1e9),
        "splitting.hit_ratio": ratio(w1["splitting.hits"], w1["splitting.replicas"]),
        "oracle.ns_per_gap": ns_per_gap,
        "oracle.share_max": ratio(ns_per_gap * sampled_blocks, sampled_busy, 1e-9),
        "executor.wall_s": w2["executor.wall_s"],
        "executor.idle_s": JOBS * w2["executor.wall_s"] - w1["cell_s"],
        "executor.tail_s": w2["executor.tail_s"],
        "executor.tasks": w2["executor.tasks"],
        "executor.steals": w2["executor.steals"],
        "executor.jobs_inline": w2["executor.jobs_inline"],
        "experiment.io_s": w1["io_s"],
        "trace.w1_wall_s": w1["wall_s"],
        "trace.layer_sum_s": layer_sum,
        "trace.unattributed_s": w1["wall_s"] - layer_sum,
        "trace.overhead_s": w2["wall_s"] - untraced_wall,
    })
    return m


def trace(harness, spec, work, reference, clock):
    """Per-layer metrics: rounds of an untraced width-2 run, a traced
    width-1 pass and a traced width-2 pass."""
    outs = {name: os.path.join(work, f"out-{name}.json") for name in ("run", "w1", "w2")}
    rounds = []
    attempted = failed = 0
    every_ok = True
    while clock.has_room(statistics.median(r[0] for r in rounds) if rounds else 0.0, len(rounds), 1):
        began = time.monotonic()
        reports = {}
        for name, mode, jobs in (("run", "run", JOBS), ("w1", "trace", 1), ("w2", "trace", JOBS)):
            remove(outs[name])
            _, _, reports[name] = spawn(
                [harness, mode, spec, "--jobs", str(jobs), "--out", outs[name]],
                os.path.join(work, f"{name}.txt"),
                clock.kill_in(),
            )
        attempted += len(outs) * len(reference)
        if any(report is None for report in reports.values()):
            failed += sum(len(reference) for report in reports.values() if report is None)
            every_ok = False
            break
        with open(outs["run"], "rb") as f:
            untraced = f.read()
        for path in outs.values():
            # Documents must be byte-identical at every width.
            with open(path, "rb") as f:
                same = f.read() == untraced
            failed += failures(path, reference) if same else len(reference)
        layers = per_layer(reports["w1"], reports["w2"], reports["run"]["wall_s"])
        rounds.append((time.monotonic() - began, layers))
    if not rounds:
        return None, attempted, failed, False, ["no traced round completed"]
    metrics = {k: statistics.median_low(r[1][k] for r in rounds) for k in rounds[0][1]}
    slack = max(0.01 * metrics["trace.w1_wall_s"], 0.005)
    summary = [
        f"{len(rounds)} traced rounds (untraced --jobs {JOBS}, traced --jobs 1, traced --jobs {JOBS})",
        f"width-1 layer sum {metrics['trace.layer_sum_s']:.6g} s of wall {metrics['trace.w1_wall_s']:.6g} s; "
        f"unattributed {metrics['trace.unattributed_s']:.3g} s "
        f"({'within' if abs(metrics['trace.unattributed_s']) <= slack else 'OUTSIDE'} the slack of "
        "max(1% of wall, 5 ms))",
        f"tracing overhead (traced minus untraced width-{JOBS} wall) {metrics['trace.overhead_s']:.3g} s",
    ]
    return metrics, attempted, failed, every_ok, summary


def record(harness, workload, work):
    """Re-records a workload's references from width-2 runs, after
    checking that width 1 writes the same documents."""
    variants = []
    for variant in range(VARIANTS[workload]):
        spec, _ = instantiate(workload, variant, work)
        documents = []
        for jobs in (1, JOBS):
            out = os.path.join(work, f"record-{jobs}.json")
            remove(out)
            code, _, report = spawn(
                [harness, "run", spec, "--jobs", str(jobs), "--out", out],
                os.path.join(work, "record.txt"),
                KILL_AFTER_S,
            )
            if report is None:
                sys.exit(f"perfbench: variant {variant} exited with {code}")
            with open(out, "rb") as f:
                documents.append(f.read())
        if documents[0] != documents[1]:
            sys.exit(f"perfbench: variant {variant} differs between --jobs 1 and --jobs {JOBS}")
        variants.append(refcheck.records(json.loads(documents[1])))
        print(f"{workload} variant {variant}: {len(variants[-1])} cells", file=sys.stderr)
    refcheck.save(os.path.join(HERE, "refs", workload + ".json"), workload, variants)


def main():
    # On SIGTERM, unwind so that spawn() kills and reaps its process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(VARIANTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record the workload's references")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    harness = build()
    work = os.path.join(target_dir(), "perfbench-work", f"{args.workload}-{args.seed}-{args.trace}")
    os.makedirs(work, exist_ok=True)
    if args.record:
        record(harness, args.workload, work)
        return

    spec, variant = instantiate(args.workload, args.seed, work)
    reference = refcheck.load(os.path.join(HERE, "refs", args.workload + ".json"))["variants"][variant]
    clock = Clock(args.seconds)
    steal0 = host_steal_s()
    run = trace if args.trace else measure
    values, attempted, failed, every_ok, summary = run(harness, spec, work, reference, clock)
    extra = {
        "failed_frac": (failed / attempted, "1"),
        "host.steal_s": (host_steal_s() - steal0, "s"),
    }

    print(f"workload {args.workload}, seed {args.seed} (input variant {variant}), {clock.elapsed():.1f} s")
    for line in summary:
        print("  " + line)
    if values is None:
        sys.exit("perfbench: no successful process to report on")
    for m in declared:
        print(f"  {m['name']:<26} {values[m['name']]:<14.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<26} {value:<14.6g} {unit}")
    result = {
        "correct": every_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
