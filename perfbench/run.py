"""Run one fractalcalc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pointwise-ops --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload pointwise-ops --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory. One caller issues each op after the last
one returns (a closed loop, one process, no threads), cycling through the
seeded op list until ``--seconds`` have passed. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass over
the op list and prints the per-layer metrics. End-to-end times are scaled
to a reference machine speed (``speed.py``); the report also shows them raw.
Every execution's output is checked against an oracle in ``oracles.py``
after timing. The last line of standard output is one JSON object; the lines
before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import warnings
from array import array
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: The names in workloads.WORKLOADS, repeated here so that parsing the
#: arguments does not import the library before set-up is timed.
WORKLOADS = ("pointwise-ops", "example-solve", "exact-measure")
#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 9
#: Metric names and units printed with --trace 0, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)


def setup(workload_name: str, seed: int):
    """Import the library, build the staircase, make the inputs and warm up."""
    import workloads
    from fractalcalc.exceptions import DifferentiationNoiseWarning

    # Derivative stencils warn when their two levels disagree; the oracle
    # check decides whether a value is good, so the warning adds nothing.
    warnings.simplefilter("ignore", DifferentiationNoiseWarning)
    wl = workloads.WORKLOADS[workload_name]
    sf = workloads.staircase()
    ops = workloads.make_ops(wl, seed, sf)
    for op in wl.warmup_ops(sf):
        wl.run(op, sf)
    return wl, sf, ops


#: Modules that must not be loaded when the set-up clock starts: the
#: library and its heavy dependency, whose import is part of set-up.
NOT_PRELOADED = ("fractalcalc", "numpy")


def setup_probe(args) -> int:
    import speed

    log = speed.SpeedLog()
    log.sample()
    preloaded = [m for m in NOT_PRELOADED if m in sys.modules]
    t0 = time.perf_counter()
    setup(args.workload, args.seed)
    raw = time.perf_counter() - t0
    log.sample()
    print(json.dumps({"setup_s": raw * log.mean_scale(), "raw_s": raw, "preloaded": preloaded}))
    return 0


def measure_setup(args) -> list[dict]:
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        if sample["preloaded"]:
            raise RuntimeError(f"setup probe started its clock with {sample['preloaded']} already imported")
        samples.append(sample)
    return samples


class Raised(NamedTuple):
    """The summary of an op that raised instead of returning."""

    kind: str
    message: str


def summarise(wl, out):
    """`wl.summary(out)`, or a `Raised` if the op or its summary raised."""
    if not isinstance(out, Exception):
        try:
            return wl.summary(out)
        except Exception as exc:  # recorded and counted as a failed op
            out = exc
    return Raised(type(out).__name__, str(out))


def run_ops(wl, sf, ops, seconds=None, tracer=None, speed=None):
    """Run whole passes over the op list: once, or until `seconds` pass.

    Whole passes keep every op equally represented in the latency samples.
    Another pass starts only if it is expected to end less than half a pass
    after `seconds`. With a `speed` log, reference samples are taken between
    ops. Between ops, outside the timed call, each output is reduced to its
    summary (`wl.summary`) and compared with the op's first one.

    Returns per-execution start times and latencies, the wall time, the
    number of executions, each op's first output and the (op index,
    summary) of every later execution whose summary differed from the
    first. With a tracer, the first outputs are returned as they are, to be
    summarised once the tracer is detached; a traced run is one pass.
    """
    clock = time.perf_counter
    starts = array("d")
    latencies = array("d")
    first = [None] * len(ops)
    differed = []
    if speed is not None:
        speed.sample()
    executions = 0
    start = clock()
    end = start
    while True:
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = k
            t0 = clock()
            try:
                out = wl.run(op, sf)
            except Exception as exc:  # recorded and counted as a failed op
                out = exc
            end = clock()
            starts.append(t0)
            latencies.append(end - t0)
            if tracer is not None:
                first[k] = out
            elif executions < len(ops):
                first[k] = summarise(wl, out)
            else:
                summary = summarise(wl, out)
                if summary != first[k]:
                    differed.append((k, summary))
            executions += 1
            if speed is not None and end >= speed.due:
                speed.sample()
                end = clock()
        passes = executions // len(ops)
        if seconds is None or (end - start) * (1 + 0.5 / passes) >= seconds:
            return starts, latencies, end - start, executions, first, differed


def check_ops(wl, ops, first, differed, executions):
    """Check every execution's output summary against its oracle.

    Executions whose summary equals the op's first one share its verdict;
    each differing summary is checked on its own. An op fails when it raised
    or missed its oracle tolerance. The run is correct only when nothing
    raised and every miss is the recorded known miss within its cap.
    """
    passes = executions // len(ops)
    repeats = [passes] * len(ops)
    for k, _ in differed:
        repeats[k] -= 1
    failed = 0
    worst = 0.0
    correct = True
    notes = []
    for k, summary, n in [(k, s, repeats[k]) for k, s in enumerate(first)] + [(k, s, 1) for k, s in differed]:
        if isinstance(summary, Raised):
            failed += n
            correct = False
            notes.append(f"op {k} {ops[k][0]} raised {summary.kind}: {summary.message}")
            continue
        ratio = wl.check(ops[k], summary)
        worst = max(worst, ratio)
        if not ratio <= 1.0:
            failed += n
            known = wl.known_miss(ops[k], ratio)
            correct = correct and known
            notes.append(
                f"op {k} {ops[k][0]} {ops[k][1:3]} missed: error/tolerance {ratio:.4g}"
                + (" (known miss)" if known else "")
            )
    if differed:
        notes.append(f"{len(differed)} executions returned other values than their op's first")
    return failed, worst, correct, notes


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def end_to_end(args, wl, sf, ops, setup_samples):
    import numpy as np
    import speed

    log = speed.SpeedLog()
    starts, lat, wall, executions, first, differed = run_ops(wl, sf, ops, seconds=args.seconds, speed=log)
    failed, worst, correct, notes = check_ops(wl, ops, first, differed, executions)
    beyond_p90 = executions - -(-executions * 90 // 100)

    def figures(latencies, setup):
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": executions / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p90_ms": 1e3 * percentile(latencies, 90),
        }

    raw = figures(lat, [p["raw_s"] for p in setup_samples])
    scaled = np.frombuffer(lat, dtype=np.float64) * log.scale(starts)
    metrics = figures(scaled.tolist(), [p["setup_s"] for p in setup_samples])
    print(f"{args.workload} seed {args.seed}: {executions} ops "
          f"({executions // len(ops)} passes of {len(ops)}) in {wall:.3f} s; "
          f"{len(log.took)} speed samples, mean scale {log.mean_scale():.4f}")
    print(f"  {'metric':<18} {'scaled':>12} {'raw':>12}")
    for name, unit in END_TO_END:
        print(f"  {name:<18} {metrics[name]:12.6g} {raw[name]:12.6g} {unit}")
    print(f"  {'samples':<18} {executions} ops, {beyond_p90} beyond p90; setup runs {len(setup_samples)}")
    print(f"  {'failed_frac':<18} {failed / executions:.6g} ratio ({failed} of {executions})")
    print(f"  {'worst_err_ratio':<18} {worst:.6g} ratio")
    if beyond_p90 < 10:
        print(f"  note: op_p90_ms has only {beyond_p90} samples beyond it")
    for line in notes[:20]:
        print(f"  {line}")
    return metrics, executions, failed, correct


def per_layer(args, wl, sf, ops):
    """Alternate untraced and traced passes over the op list until
    `--seconds` pass (at least one pair); report per-pass layer metrics."""
    import tracer as tracing

    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    attempted = failed = 0
    correct = True
    notes: list[str] = []
    worst = 0.0
    start = time.perf_counter()
    while not walls[True] or time.perf_counter() - start < args.seconds:
        for traced in (False, True):
            if traced:
                with tracer:
                    _, _, wall, executions, first, differed = run_ops(wl, sf, ops, tracer=tracer)
                first = [summarise(wl, out) for out in first]
            else:
                _, _, wall, executions, first, differed = run_ops(wl, sf, ops)
            walls[traced].append(wall)
            n_failed, ratio, ok, pass_notes = check_ops(wl, ops, first, differed, executions)
            attempted += executions
            failed += n_failed
            correct = correct and ok
            worst = max(worst, ratio)
            notes = notes or pass_notes
    summary = tracer.summary()
    if summary["drift"]:
        correct = False
        notes.append("per-layer counts differ between passes over the same op list")
    traced_wall = statistics.fmean(walls[True])
    untraced_wall = statistics.fmean(walls[False])
    layer = tracing.per_layer_metrics(summary, traced_wall, untraced_wall)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)

    print(f"{args.workload} seed {args.seed}: {len(ops)} ops per pass, {summary['passes']} traced passes; "
          f"per pass untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s")
    for name, (value, unit) in layer.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    print(f"  self-time shares of the traced wall time per pass ({traced_wall:.3f} s):")
    for prefix in tracing.LAYERS:
        share = layer[f"{prefix}.self_s"][0] / traced_wall
        print(f"    {prefix:<14} {100 * share:6.2f} %")
    outside = (traced_wall - summary["top_s"]) / traced_wall
    print(f"    {'benchmark':<14} {100 * outside:6.2f} % (outside any span)")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted}), worst_err_ratio {worst:.6g}")
    for line in notes[:20]:
        print(f"  {line}")
    print(f"  spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
    metrics = {name: value for name, (value, _) in layer.items()}
    units = {name: unit for name, (_, unit) in layer.items()}
    return metrics, units, attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "fractalcalc" / "__init__.py").is_file():
        print(f"perfbench: no fractalcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    setup_samples = [] if args.trace else measure_setup(args)
    wl, sf, ops = setup(args.workload, args.seed)
    if args.trace:
        metrics, units, attempted, failed, correct = per_layer(args, wl, sf, ops)
    else:
        metrics, attempted, failed, correct = end_to_end(args, wl, sf, ops, setup_samples)
        units = dict(END_TO_END)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
