"""Benchmark for dgmem: train, navigate and explore workloads.

Run one workload (its result is the last line of standard output, a JSON
object with `correct`, `attempted`, `failed` and `metrics`):

    python3 benchmark/run.py --workload navigate --seed 3 --seconds 20 \
        --trace 0

Run all three, each in its own process, and print every metric by name and
unit:

    python3 benchmark/run.py --workload all --seed 0 --seconds 20 [--trace 1]

`--trace 0` reports the end-to-end metrics of untraced rounds. `--trace 1`
runs the same untraced rounds, then one more round with every dgmem layer
wrapped by `tracer.Tracer`, checks that its outputs equal the untraced ones
and reports the per-layer metrics. `--smoke` shrinks every workload to a few
seconds. Run from the root of a checkout; dgmem is imported from `src/`.
"""
from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

# One BLAS thread (nproc is 2 on the reference box): the benchmark process is
# the only load, and a single thread keeps run-to-run spread down.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(HERE, "inputs")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("train", "navigate", "explore")

END_TO_END = (("setup_s", "s"), ("steps_per_s", "steps/s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def process_age_s() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Set up one workload, run rounds for `seconds`; return the result, the
    outputs, failed checks and, when traced, the per-function tables."""
    sys.path[:0] = [HERE, SRC]
    import workloads
    from tracer import Tracer, metric_specs, wrapper_cost_s

    workload = workloads.make(name, seed, smoke, INPUTS)
    setup_s = process_age_s()

    # Whole rounds only: another round starts if it should end in time.
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(workload.run_round())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    traced = tracer = None
    if trace:
        tracer = Tracer()
        traced = workload.run_round(tracer)

    everything = rounds + ([traced] if traced else [])
    problems = []
    for n, r in enumerate(everything):
        label = "traced round" if r is traced else f"round {n}"
        problems += [f"{label}: {p}" for p in r.problems]
        if r.outputs != rounds[0].outputs:
            problems.append(f"{label}: outputs differ from round 0: "
                            f"{r.outputs} != {rounds[0].outputs}")
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)

    if trace:
        layer = _layer_metrics(tracer, traced, wrapper_cost_s())
        metrics = {n: {"value": layer[n], "unit": u}
                   for n, u in metric_specs()}
    else:
        samples = [smp for r in rounds for smp in r.samples]
        values = {
            "setup_s": setup_s,
            "steps_per_s": statistics.median(n / w for n, w, _ in samples),
            "cpu_s": rounds[0].steps / statistics.median(
                n / c for n, _, c in samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    first = rounds[0]
    outputs = {"workload": name, "seed": seed, "smoke": smoke,
               "blas_threads": BLAS_THREADS, "rounds": len(rounds),
               "round_wall_s": [r.timed_s for r in rounds],
               "round_cpu_s": [r.cpu_s for r in rounds],
               "samples": sum(len(r.samples) for r in rounds),
               **{k: v for k, v in first.outputs.items()
                  if not k.endswith("sha256")}}
    if name == "navigate":
        outputs["episodes_per_s"] = statistics.median(
            r.info["episodes"] / r.timed_s for r in rounds)
    report = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail = {"result": report, "outputs": outputs, "problems": problems,
              "round_outputs": first.outputs}
    if trace:
        detail["trace"] = {"wall_diff_s": traced.timed_s - statistics.median(
                               r.timed_s for r in rounds),
                           "functions": tracer.table(),
                           "callers": tracer.caller_table(),
                           "counters": tracer.counters}
    return detail


def _layer_metrics(tracer, traced, cost_per_call_s: float) -> dict:
    values = {}
    for name, stat in tracer.table().items():
        values[f"{name}.calls"] = stat["calls"]
        values[f"{name}.rows"] = stat["rows"]
        values[f"{name}.self_s"] = stat["self_s"]
    values.update({k: v for k, v in tracer.counters.items()})
    values["graph.nodes"] = traced.info["nodes"]
    values["graph.edges"] = traced.info["edges"]
    drift_calls = tracer.calls("navigator._drift_correction")
    values["navigator.drift_hit_ratio"] = (
        tracer.counters["navigator.drift_hits"] / drift_calls
        if drift_calls else 0.0)
    # Wrapper cost times traced calls. The wall-time difference between the
    # traced and untraced rounds is kept in the run file, but on a shared host
    # it is dominated by drift in machine speed.
    calls = sum(stat["calls"] for stat in tracer.table().values())
    values["trace.overhead_s"] = cost_per_call_s * calls
    return values


def _write_detail(name: str, seed: int, trace: bool, detail: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, default=str)


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    base = [sys.executable, os.path.abspath(__file__), "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace",
            str(args.trace)] + (["--smoke"] if args.smoke else [])
    status = 0
    print(f"{'workload':<9} {'metric':<48} {'value':>14}  unit")
    for name in WORKLOADS:
        proc = subprocess.run(base + ["--workload", name], cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name:<9} failed with exit code {proc.returncode}")
            status = 1
            continue
        report = json.loads(lines[-1])
        outputs = next(json.loads(ln[len("outputs "):]) for ln in lines
                       if ln.startswith("outputs "))
        rows = [(m, v["value"], v["unit"])
                for m, v in report["metrics"].items()]
        extra = {"spl": "ratio", "cells_covered": "cells",
                 "episodes_per_s": "episodes/s"}
        rows += [(m, outputs[m], u) for m, u in extra.items() if m in outputs]
        rows += [("correct", report["correct"], "-"),
                 ("attempted", report["attempted"], "ops"),
                 ("failed", report["failed"], "ops")]
        for metric, value, unit in rows:
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"{name:<9} {metric:<48} {shown:>14}  {unit}")
        if not report["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload in a few seconds")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        return _fail("--seconds must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "dgmem", "__init__.py")):
        return _fail(f"no dgmem sources under {SRC}; run from a checkout")
    if args.workload == "all":
        return run_all(args)
    if args.workload == "navigate":
        for f in ("checkpoint.ckpt", "graph.dgm"):
            if not os.path.isfile(os.path.join(INPUTS, f)):
                return _fail(f"missing navigate input {f}")
    detail = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    _write_detail(args.workload, args.seed, bool(args.trace), detail)
    for problem in detail["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("outputs " + json.dumps(detail["outputs"], default=str))
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
