"""Seeded end-to-end benchmark of the minkgeom CLI, with a traced per-layer run.

One closed-loop caller in one thread drives minkgeom.cli.main([...]) in
process, in whole rounds, while the next round is expected to end nearer
to --seconds.
Every answer is checked after the timed phase (checker.py).  The last line
of standard output is one JSON object; the lines before it are for people.

    python3 bench/run.py --workload walsh --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload walsh --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --spread                      # all workloads, seeds 1..10

--trace 0 reports the end-to-end metrics, with times scaled to a nominal
speed of the host (speed.py); --trace 1 the per-layer ones (tracer.py) and
the tracing overhead.  --spread runs each workload ten
times, with ten seeds, in fresh interpreters and compares every metric's
quartile spread with its bound in BENCHMARK.json.  Run from anywhere; the library is imported from
src/ next to this directory, and scratch files go to .bench_work/ there.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import REF_S, Speedometer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Figures printed for people but not in the JSON result: report_prop*_s
# exist only on walsh, op_p90_s only with ten samples beyond it, and the
# ratio and counts are 0 on a correct run, while every end-to-end metric must
# be reported, and be nonzero, on every workload.  Latencies are scaled by
# the run's average speed, so single ops still carry the drift within a run
# (README.md, "Noise"); wall_ops_per_s is ops_per_s before scaling, and
# speed the measured speed (speed.py).
INFO_UNITS = {
    "op_p50_s": "s", "op_p90_s": "s", "report_prop3_s": "s", "report_prop4_s": "s",
    "fail_ratio": "ratio", "unchecked_items": "count", "search_found": "count",
    "search_not_found": "count", "wall_ops_per_s": "1/s", "speed": "ratio",
}

# Set-up is also timed in this many fresh interpreters, started between ops
# and spread over the timed phase; setup_s is the median.
SETUP_PROBES = 11
SPREAD_RUNS = 10  # runs per workload in --spread, seeds --seed .. --seed + 9


@dataclass
class Record:
    op: object
    seconds: float
    rc: object
    text: str
    error: str = None


def tail_percentile(samples, q):
    """Nearest-rank q-quantile, or None when fewer than ten samples lie beyond it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < 10:
        return None
    return xs[rank - 1]


def setup(workload, seed, workdir):
    """Import the library, generate the inputs and build the balls; (seconds, lib, plan).

    The inputs' JSON is made but not written (Plan.write): the time to create
    files on this VM's disk rose threefold over minutes of runs, whatever
    the code (README.md, "Noise").  seconds are scaled to the nominal speed
    (speed.py), or None when the set-up was too short to take a speed sample.
    """
    from inputs import make_plan

    speedo = Speedometer()
    speedo.start()
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import minkgeom
    import minkgeom.cli

    if Path(minkgeom.__file__).resolve().parent != SRC / "minkgeom":
        raise RuntimeError(f"imported minkgeom from {minkgeom.__file__}, not from {SRC}")
    plan = make_plan(workload, seed, workdir)
    for kind, dim in plan.balls:
        (minkgeom.l1_ball if kind == "l1" else minkgeom.linf_ball)(dim)
    seconds = perf_counter() - start
    speedo.stop()
    return speedo.scale(seconds), minkgeom, plan


def run_op(cli, op, tracer=None):
    out = io.StringIO()
    if tracer:
        tracer.begin_op(op.kind)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc, error = cli.main(list(op.argv)), None
    except (Exception, SystemExit) as exc:  # SystemExit: argparse refused the arguments
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if tracer:
        tracer.end_op(seconds)
    return Record(op, seconds, rc, out.getvalue(), error)


def timed_phase(plan, seconds, run, probe=None, speedo=None):
    """Run whole rounds while the next one is expected to end nearer to --seconds.

    probe, when given, is called SETUP_PROBES times: after an op once the
    next probe is due (evenly spaced over --seconds), and any left over at
    the end.  Its time is not part of the measured time, and speedo, when
    given, samples the speed in the rounds and not in the probes.  Returns
    (records, seconds spent in rounds).
    """
    records, rounds, probes = [], [], 0
    if speedo:
        speedo.start()
    while True:
        start, paused = perf_counter(), 0.0
        for op in plan.rounds[len(rounds) % len(plan.rounds)]:
            records.append(run(op))
            elapsed = sum(rounds) + perf_counter() - start - paused
            if probe and probes < SETUP_PROBES and elapsed >= probes * seconds / SETUP_PROBES:
                t = perf_counter()
                if speedo:
                    speedo.stop()
                probe()
                if speedo:
                    speedo.start()
                paused += perf_counter() - t
                probes += 1
        rounds.append(perf_counter() - start - paused)
        if sum(rounds) + statistics.mean(rounds) / 2 > seconds:
            break
    if speedo:
        speedo.stop()
    for _ in range(probes, SETUP_PROBES if probe else 0):
        probe()
    return records, sum(rounds)


def check_all(checker, records):
    failures = []
    for rec in records:
        reason = rec.error or checker.check(rec.op, rec.rc, rec.text)
        if reason:
            failures.append(f"{rec.op.kind} {' '.join(rec.op.argv)}: {reason}")
    return failures


def kind_median(records, kind):
    xs = [r.seconds for r in records if r.op.kind == kind]
    return statistics.median(xs) if xs else None


def setup_probe(args):
    """Set-up seconds of a fresh interpreter, run to completion."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def show(name, value, unit):
    text = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
    print(f"  {name:<48} {text:>14} {unit}")


def run_workload(args, workdir):
    from checker import Checker

    own_setup, mk, plan = setup(args.workload, args.seed, workdir)
    plan.write()
    tracer, untraced, setups, probe, speedo = None, [], [own_setup], None, None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mk)

        def run(op):
            # each traced op is followed by the same op untraced, so the
            # overhead is measured under the same machine load
            tracer.activate()
            rec = run_op(mk.cli, op, tracer)
            tracer.deactivate()
            untraced.append(run_op(mk.cli, op))
            return rec
    else:
        def run(op):
            return run_op(mk.cli, op)

        def probe():
            setups.append(setup_probe(args))

        speedo = Speedometer()

    records, wall = timed_phase(plan, args.seconds, run, probe, speedo)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = [
        f"{r.op.kind} {' '.join(r.op.argv)}: traced output differs from untraced"
        for r, u in zip(records, untraced) if (r.rc, r.text) != (u.rc, u.text)
    ]
    checker = Checker(mk)
    failures += check_all(checker, records)
    attempted = len(records)
    # untraced, latencies are scaled like ops_per_s; traced, they stay raw
    factor = speedo.scale(wall) / wall if speedo else 1.0
    lat = [r.seconds * factor for r in records]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  python {sys.version.split()[0]}")
    print(f"  {attempted} ops in {wall:.3f} s, one closed-loop caller"
          + (", each op traced and then untraced" if tracer else ", latencies at the nominal speed"))
    for kind in dict.fromkeys(r.op.kind for r in records):
        n = sum(r.op.kind == kind for r in records)
        show(f"median latency {kind} (n={n})", factor * kind_median(records, kind), "s")
    info = {
        "op_p50_s": statistics.median(lat),
        "fail_ratio": len(failures) / attempted,
        "unchecked_items": checker.unchecked_items,
        "op_p90_s": tail_percentile(lat, 0.9),
        "search_found": checker.search_found,
        "search_not_found": checker.search_not_found,
    }
    if speedo:
        setups = [x for x in setups if x is not None]
        info["wall_ops_per_s"] = attempted / wall
        info["speed"] = REF_S * len(speedo.samples) / sum(speedo.samples)
    if args.workload == "walsh":
        info["report_prop3_s"] = factor * kind_median(records, "prop3")
        info["report_prop4_s"] = factor * kind_median(records, "prop4")
    if tracer:
        metrics = tracer.metrics()
        traced_s, untraced_s = sum(lat), sum(u.seconds for u in untraced)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
        metrics["trace.wrapped_functions"] = len(tracer.wrapped)
        metrics["check.fail_ratio"] = info["fail_ratio"]
        metrics["check.unchecked_items"] = checker.unchecked_items
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / speedo.scale(wall),
            "peak_rss_mb": peak_rss_mb,
        }
    bench = _benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(INFO_UNITS)
    for name, value in {**metrics, **info}.items():
        show(name, value, units[name])
    for line in failures[:10]:
        print("  FAILED " + line)
    print("info " + json.dumps(info))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def _benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spread(args):
    """Run workloads SPREAD_RUNS times in fresh interpreters; report each metric's spread against its bound."""
    bench = _benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    for workload in workloads:
        runs, infos, walls = [], [], []
        for i in range(SPREAD_RUNS):
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed + i), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            walls.append(perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {args.seed + i}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            runs.append(json.loads(lines[-1]))
            infos.append(json.loads(next(l for l in lines if l.startswith("info "))[5:]))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {SPREAD_RUNS} runs, {attempted} ops, fail_ratio {failed / attempted:.4g}, "
              f"all correct {all(r['correct'] for r in runs)}, "
              f"unchecked_items per run {[i['unchecked_items'] for i in infos]}, "
              f"run wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for name in bounds:
            print(f"  {name:<16} runs " + " ".join(f"{r['metrics'][name]['value']:.4g}" for r in runs))
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            worst = max(worst, share / m["bound"])
            verdict = "steady" if share < m["bound"] / 3 else ("within bound" if share <= m["bound"] else "TOO WIDE")
            print(f"  {name:<16} median {med:<12.6g} {m['unit']:<6} spread {share:7.2%} "
                  f"bound {m['bound']:.0%}  {verdict}")
        for key in ("wall_ops_per_s", "speed", "op_p50_s", "report_prop3_s",
                    "report_prop4_s", "op_p90_s"):
            vals = [i.get(key) for i in infos if i.get(key) is not None]
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                print(f"  {key:<16} median {med:<12.6g} {INFO_UNITS[key]:<6} spread {(q3 - q1) / med:7.2%} "
                      f"(info, n={len(vals)})")
    print(f"worst spread / bound: {worst:.2f}")
    return 0


def main(argv=None):
    from inputs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", action="store_true", help="repeat workloads and report spreads")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "minkgeom" / "__init__.py").is_file():
        print(f"no library at {SRC / 'minkgeom'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.spread:
        return spread(args)
    if args.workload is None or (args.seconds is None and not args.setup_probe):
        parser.error("--workload and --seconds are required")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.setup_probe:  # names the input files, writes none
        seconds, _, _ = setup(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": seconds}))
        return 0
    workdir.mkdir(parents=True)
    try:
        run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
