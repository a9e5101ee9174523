"""Benchmark of the ``reslat`` command line.

    python3 bench/run.py --workload search7|catalog6|large12 \
        --seed N --seconds S --trace 0|1

Run from any directory; the package is taken from ``src/`` next to this
directory, so nothing needs installing.  Each op is one ``reslat``
command in its own child process, one child at a time, with
``RESLAT_JOBS`` removed (the search runs one worker) and
``PYTHONHASHSEED`` fixed.  Every answer is checked (``workloads.py``).

A run repeats whole rounds of the workload's ops while the next round
is projected to end within ``--seconds``, and always runs one.  With
``--trace 0`` it prints the end-to-end metrics, each a median over the
rounds of the run.  With ``--trace 1`` each round runs the ops once
through the CLI and once more under the tracer (``tracer.py``), and the
run prints the per-layer metrics.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller record, with machine info and every op's time, goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The whole run must end well within the 180 s a run may take.
RUN_LIMIT_S = 170.0
# Set-up is sampled before the first round and after every round, so
# its median spans the same stretch of machine time as the ops.
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "algebras_per_s": "1/s",
    "verdicts_per_s": "1/s", "op_p50_s": "s", "op_max_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}

TIMED_LAYERS = (
    "search.enumerate_lattices", "search.enumerate_residuated",
    "classify.classification", "io.parse_stream", "algebra.check_tables",
    "filters.all_filters", "spectrum.prime_filters",
    "spectrum.minimal_primes", "spectrum.maximal_filters",
    "spectrum.hull_topology", "coann.coannulet_family",
    "coann.coannihilator_family", "coann.all_ideals", "coann.omega_family",
    "alpha.alpha_family", "alpha.prime_alpha_filters",
    "classify.structure_maps",
)
SEARCH_COUNTS = ("lattices", "examined", "pruned", "found", "emitted",
                 "iso_rejected")


def per_layer_units(registry: list[str]) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED_LAYERS:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in SEARCH_COUNTS:
        units[f"search.{name}"] = "count"
    units["search.emitted_per_examined"] = "ratio"
    for ident in registry:
        units[f"suite.{ident}.s"] = "s"
    units["suite.statements"] = "count"
    units["suite.failed"] = "count"
    units["trace.op_s"] = "s"
    units["trace.span_coverage"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "cpu_model": model,
            "platform": platform.platform()}


def child_env() -> dict:
    # Without RESLAT_JOBS the search runs one worker.  Bytecode is cached
    # in the checkout as an install would, so set-up measures the import
    # and not compilation.
    drop = ("RESLAT_JOBS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


class RunOutOfTime(Exception):
    pass


class Runner:
    """Starts one child at a time and keeps the run inside its limit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise RunOutOfTime()
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RunOutOfTime() from exc
        return proc, time.perf_counter() - start

    def cli(self, op) -> tuple[subprocess.CompletedProcess, float]:
        return self.run([sys.executable, "-m", "reslat.cli", *op.argv()])

    def traced(self, op) -> tuple[subprocess.CompletedProcess, float]:
        spec = json.dumps({"kind": op.kind, "args": list(op.args),
                           "inputs": list(op.inputs)})
        return self.run([sys.executable, str(HERE / "tracer.py"), spec])


def setup_times(runner: Runner) -> list[float]:
    """Cold interpreter start plus ``import reslat.cli``, a few times."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc, wall = runner.run([sys.executable, "-c", "import reslat.cli"])
        if proc.returncode != 0:
            raise SystemExit(f"cannot import reslat.cli:\n{proc.stderr}")
        out.append(wall)
    return out


class Tally:
    """Ops attempted and failed, with every problem found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def cli_round(runner: Runner, ops, expected, tally: Tally, wl):
    """Run each op once through the CLI; return (walls, parsed reports)."""
    walls, reports = [], []
    for op in ops:
        try:
            proc, wall = runner.cli(op)
        except RunOutOfTime:
            tally.record([f"{op.kind} did not finish within the run limit"])
            raise
        problems = wl.check(op, proc.returncode, proc.stdout, expected)
        tally.record(problems)
        walls.append(wall)
        reports.append(None if problems else json.loads(proc.stdout))
    return walls, reports


def traced_round(runner: Runner, ops, tally: Tally):
    """Run each op once under the tracer; return (walls, op results)."""
    walls, results = [], []
    for op in ops:
        proc, wall = runner.traced(op)
        if proc.returncode != 0:
            tally.record([f"tracer failed on {op.kind}: {proc.stderr[-2000:]}"])
            results.append(None)
        else:
            results.append(json.loads(proc.stdout))
        walls.append(wall)
    return walls, results


def trace_problems(op, report: dict, counts: dict) -> list[str]:
    """Does the traced op agree with the CLI's answer for the same op?"""
    if op.kind == "search":
        want = {"lattices": report["totals"]["lattices"],
                "matching": report["totals"]["matching"], **report["stats"]}
        got = {k: counts[k] for k in want}
        return [] if got == want else [f"traced search counts {got} != {want}"]
    if op.kind == "verify":
        want = len(report["algebras"]) * len(report["algebras"][0]["results"])
        if counts["statements"] != want or counts["failed"]:
            return [f"traced suite ran {counts['statements']} statements "
                    f"({counts['failed']} failed), want {want} passing"]
    return []


def summarize_trace(results: list[dict]) -> tuple[dict, dict, float, float]:
    """Per-name (seconds, calls), summed counts, op time and coverage."""
    layers: dict[str, list] = {}
    counts: dict[str, int] = {}
    op_s = covered = 0.0
    for result in results:
        spans = result["spans"]
        for sid, name, parent, start, end in spans:
            entry = layers.setdefault(name, [0.0, 0])
            entry[0] += end - start
            entry[1] += 1
            if parent is None:
                op_s += end - start
            elif spans[parent][2] is None:
                covered += end - start
        for key, value in result["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return layers, counts, op_s, covered / op_s if op_s else 0.0


def end_to_end_metrics(ops, rounds, setup) -> dict:
    algebras = sum(op.algebras for op in ops)
    verdicts = sum(op.verdicts for op in ops)
    round_walls = [sum(r) for r in rounds]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": median(setup),
        "wall_s": median(round_walls),
        "algebras_per_s": median(algebras / w for w in round_walls),
        "verdicts_per_s": median(verdicts / w for w in round_walls),
        "op_p50_s": median(w for r in rounds for w in r),
        "op_max_s": median(max(r) for r in rounds),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer_metrics(units, summaries, traced_walls, cli_walls) -> dict:
    """Medians over traced rounds; counts are those of the first round."""
    first_counts = summaries[0][1]
    values = {}
    for name in TIMED_LAYERS:
        values[f"{name}.s"] = median(s[0].get(name, (0.0, 0))[0]
                                     for s in summaries)
        values[f"{name}.calls"] = summaries[0][0].get(name, (0.0, 0))[1]
    for name in SEARCH_COUNTS:
        values[f"search.{name}"] = first_counts.get(name, 0)
    examined = first_counts.get("examined", 0)
    values["search.emitted_per_examined"] = (
        first_counts["emitted"] / examined if examined else 0.0)
    for metric in units:
        if metric.startswith("suite.") and metric.endswith(".s"):
            values[metric] = median(s[0].get(metric[:-2], (0.0, 0))[0]
                                    for s in summaries)
    values["suite.statements"] = first_counts.get("statements", 0)
    values["suite.failed"] = first_counts.get("failed", 0)
    values["trace.op_s"] = median(s[2] for s in summaries)
    values["trace.span_coverage"] = median(s[3] for s in summaries)
    values["trace.overhead_frac"] = median(
        sum(t) / sum(c) - 1 for t, c in zip(traced_walls, cli_walls))
    return values


def measure(runner, ops, expected, seconds, trace, tally, wl, log, setup):
    """Repeat rounds while the next one is projected to fit in seconds."""
    start = time.perf_counter()
    cli_walls, traced_walls, summaries = [], [], []
    spans_out = []
    setup_times(runner)  # writes the bytecode cache on a first run
    setup += setup_times(runner)
    while True:
        walls, reports = cli_round(runner, ops, expected, tally, wl)
        cli_walls.append(walls)
        round_s = sum(walls)
        if trace:
            t_walls, results = traced_round(runner, ops, tally)
            traced_walls.append(t_walls)
            round_s += sum(t_walls)
            if all(r is not None for r in results):
                for i, (op, report, res) in enumerate(
                        zip(ops, reports, results)):
                    if report is not None:
                        tally.problems += trace_problems(op, report,
                                                         res["counts"])
                    spans_out.append({"round": len(summaries), "op": i,
                                      "kind": op.kind,
                                      "spans": res["spans"]})
                summaries.append(summarize_trace(results))
        log.append({"round": len(cli_walls), "cli_walls": walls,
                    "traced_walls": traced_walls[-1] if trace else None})
        setup += setup_times(runner)
        elapsed = time.perf_counter() - start
        if elapsed + round_s > seconds:
            return cli_walls, traced_walls, summaries, spans_out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Turn SIGTERM into SystemExit, so a running child is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "reslat" / "cli.py").is_file():
        print(f"error: no reslat sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")

    expected = wl.load_expected()
    runner = Runner(started + RUN_LIMIT_S)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    log: list = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        ops = wl.build(args.workload, args.seed, Path(tmp))
        setup: list[float] = []
        try:
            cli_walls, traced_walls, summaries, spans = measure(
                runner, ops, expected, args.seconds, args.trace, tally,
                wl, log, setup)
        except RunOutOfTime:
            cli_walls, traced_walls, summaries, spans = [], [], [], []

    correct = tally.failed == 0 and not tally.problems
    if args.trace:
        units = per_layer_units(expected["registry"])
        values = (per_layer_metrics(units, summaries, traced_walls,
                                    cli_walls[:len(traced_walls)])
                  if summaries else {})
        correct = correct and len(summaries) == len(cli_walls) and bool(
            summaries) and all(s[1] == summaries[0][1] for s in summaries)
    else:
        units = END_TO_END
        values = (end_to_end_metrics(ops, cli_walls, setup)
                  if cli_walls else {})
        if values:
            values["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(), "setup_samples": setup,
              "ops": [op.argv() for op in ops], "rounds": log,
              "problems": tally.problems, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    info = record["machine"]
    print(f"reslat benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(cli_walls)} rounds of {len(ops)} ops; "
          f"{info['nproc']} cpus, Python {info['python']}, {info['cpu_model']}")
    print(f"samples: {len(cli_walls)} rounds, {sum(map(len, cli_walls))} "
          f"commands (op_p50_s), {len(setup)} set-up starts (setup_s)")
    for problem in tally.problems:
        print(f"FAILED CHECK: {problem}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed if tally.attempted
                      else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
