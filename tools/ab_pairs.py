"""Compare two checkouts on one benchmark workload with alternating pairs.

For each seed, runs ``benchmark/run.py`` once in each checkout, one process
at a time, the parent first on even pairs and the change first on odd ones.
Prints each pair's end-to-end metrics and whether the two runs' round
outputs agree, naming the output keys that differ, then per metric the
medians, quartiles, the median and quartiles of the per-pair ratios (change
over parent) and the change's wins (ties count for neither side), and
whether a gain is claimable: the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile range.
For each metric with a ``bound`` in the parent's ``BENCHMARK.json`` it also
marks whether the change's median is within it: worse than the parent's
median by at most that fraction of it.
The last line is the summary as JSON.
Each run's minor page faults (the ``ru_minflt`` of the benchmark process),
its round count and its faults per round are printed with its pair, and the
faults and faults per round are summarised per side; they explain a timing
and are neither gated nor claimable. A faster side runs more rounds in the
same ``--seconds``, so only the faults per round compare the two sides'
work.
With ``--out FILE`` the summary is also recorded in FILE, together with every
pair's row (``outputs_differ`` lists its differing output keys), the
workload, seeds, ``--seconds``, each checkout's git commit, the BLAS thread
count the runs reported, the NumPy version and whether
``PYTHONDONTWRITEBYTECODE`` is set (then no ``__pycache__`` is written and
every run's ``setup_s`` includes compiling each module from source, so it
grows with the source size; printed once at the start). FILE holds
``{"runs": [record, ...]}``; each invocation appends its record.
Pairs are always timed untraced. With ``--trace 1``, one traced run per
checkout follows on the first seed (``--seconds 0``); the record's
``layers`` holds both runs' per-layer rows (``<module>.<fn>.calls``,
``.rows``, ``.self_s`` and the counters) and the counts that differ are
printed.
``--smoke`` forwards ``--smoke`` to every benchmark run: a setup-only
control for ``setup_s`` (each side's import and input building), since a
smoke round's work is a few seconds on tiny inputs. Its ``steps_per_s``
does not measure a workload; the summary says so and the record stores
``smoke``.
A benchmark run that exits non-zero ends the pairs: its seed, side, exit
code and the tail of its stderr are printed, the completed pairs are still
summarised, the record (with ``--out``) gets a ``failed_run`` entry, and
the exit status is 1.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload navigate \\
        --seeds 10-19 --seconds 20 --out BENCH.json [--trace 1] [--smoke]
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple


SMOKE_NOTE = ("smoke runs compare setup_s only; their steps_per_s does not "
              "measure a workload")


class RunFailed(RuntimeError):
    """A benchmark run that exited non-zero; keeps the last 20 lines of
    its stderr."""

    def __init__(self, checkout: str, seed: int, code: int, stderr: str):
        super().__init__(f"seed {seed} in {checkout} exited {code}")
        self.checkout, self.seed, self.code = checkout, seed, code
        self.stderr_tail = (stderr or "").splitlines()[-20:]


def parse_seeds(text: str) -> List[int]:
    """``"3"``, ``"0-9"`` or ``"1,4,7"`` (ranges inclusive) as a list."""
    seeds: List[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    return seeds


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: List[dict], better: Dict[str, str],
              bounds: Optional[Dict[str, float]] = None) -> dict:
    """Per-metric medians, quartiles and wins of the change over the parent.

    ``pairs`` holds one ``{"parent": {metric: value}, "change": {metric:
    value}, "outputs_equal": bool}`` per pair; ``better`` maps each metric
    to "higher" or "lower". Each metric also gets the median and quartiles
    of the per-pair ratios, change over parent (pairs whose parent value is
    0 left out; None when none is left): host drift between pairs widens
    each side's quartiles but not these. A metric named in ``bounds`` also
    gets its
    ``bound`` and ``within_bound``: whether the change's median is worse
    than the parent's by at most ``bound`` times the parent's.
    """
    metrics = {}
    for name, direction in better.items():
        old = [p["parent"][name] for p in pairs]
        new = [p["change"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        old_q, new_q = quartiles(old), quartiles(new)
        old_med, new_med = statistics.median(old), statistics.median(new)
        ratios = [b / a for a, b in zip(old, new) if a]
        metrics[name] = {
            "better": direction,
            "parent_median": old_med, "parent_quartiles": old_q,
            "change_median": new_med, "change_quartiles": new_q,
            "ratio": new_med / old_med if old_med else None,
            "pair_ratio_median": (statistics.median(ratios) if ratios
                                  else None),
            "pair_ratio_quartiles": quartiles(ratios) if ratios else None,
            "wins": wins, "losses": losses,
            "claimable": (wins >= 0.9 * len(pairs)
                          and sign * (new_med - old_med) > old_q[1] - old_q[0]),
        }
        bound = (bounds or {}).get(name)
        if bound is not None:
            metrics[name]["bound"] = bound
            metrics[name]["within_bound"] = (
                sign * (old_med - new_med) <= bound * abs(old_med))
    return {"pairs": len(pairs),
            "outputs_equal": sum(p["outputs_equal"] for p in pairs),
            "metrics": metrics}


def fault_summary(pairs: List[dict], key: str = "minor_faults") -> dict:
    """Median and quartiles of each side's ``key`` (minor page faults, or
    faults per round)."""
    out = {}
    for side in ("parent", "change"):
        faults = [p[key][side] for p in pairs]
        out[f"{side}_median"] = statistics.median(faults)
        out[f"{side}_quartiles"] = quartiles(faults)
    return out


def differing_outputs(parent: dict, change: dict) -> List[str]:
    """Sorted keys of two runs' round outputs whose values differ, a key
    missing on one side included."""
    missing = object()
    return sorted(k for k in parent.keys() | change.keys()
                  if parent.get(k, missing) != change.get(k, missing))


def git_commit(checkout: str) -> Optional[str]:
    """HEAD commit of ``checkout``, suffixed "-dirty" when tracked files
    differ from it; None when it is not a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", checkout, *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("-dirty" if dirty else "")


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int, smoke: bool = False) -> Tuple[dict, dict]:
    """(result, detail) of one benchmark run in ``checkout``, with
    ``--smoke`` when ``smoke``: the result line it prints, with the run's
    minor page faults added as ``minor_faults``, and the detail file it
    writes. Raises RunFailed when the run exits non-zero."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                              text=True, check=True)
    except subprocess.CalledProcessError as exc:
        raise RunFailed(checkout, seed, exc.returncode, exc.stderr) from exc
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["minor_faults"] = faults
    path = os.path.join(checkout, "benchmark", "out",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return result, json.load(fh)


def traced_layers(args, counts: Sequence[str]) -> dict:
    """One traced run per checkout on the first seed: both runs' layer
    rows, whether their round outputs agree, and the ``counts`` metrics
    whose values differ, as {name: [parent, change]}."""
    seed = args.seeds[0]
    runs = {side: run_once(getattr(args, side), args.workload, seed, 0, 1,
                           args.smoke)
            for side in ("parent", "change")}
    rows = {side: {m: v["value"] for m, v in runs[side][0]["metrics"].items()}
            for side in runs}
    differ = {m: [rows["parent"].get(m), rows["change"].get(m)]
              for m in counts
              if rows["parent"].get(m) != rows["change"].get(m)}
    return {"seed": seed, "parent": rows["parent"], "change": rows["change"],
            "outputs_equal": (runs["parent"][1]["round_outputs"]
                              == runs["change"][1]["round_outputs"]),
            "counts_differ": differ}


def run_pair(args, n: int, seed: int, better: Dict[str, str]
             ) -> Tuple[dict, set]:
    """Pair ``n`` on ``seed``, the parent first on even pairs: its row,
    printed, and the BLAS thread counts its runs reported."""
    sides = ["parent", "change"] if n % 2 == 0 else ["change", "parent"]
    runs = {side: run_once(getattr(args, side), args.workload, seed,
                           args.seconds, 0, args.smoke)
            for side in sides}
    pair = {side: {m: runs[side][0]["metrics"][m]["value"]
                   for m in better} for side in runs}
    pair["outputs_differ"] = differing_outputs(
        runs["parent"][1]["round_outputs"],
        runs["change"][1]["round_outputs"])
    pair["outputs_equal"] = not pair["outputs_differ"]
    pair["correct"] = all(runs[s][0]["correct"] for s in runs)
    pair["minor_faults"] = faults = {s: runs[s][0]["minor_faults"]
                                     for s in runs}
    pair["rounds"] = rounds = {s: runs[s][1]["outputs"]["rounds"]
                               for s in runs}
    pair["faults_per_round"] = {s: faults[s] / rounds[s] for s in runs}
    pair["seed"], pair["first"] = seed, sides[0]
    shown = "  ".join(f"{m} {pair['parent'][m]:.4g}/{pair['change'][m]:.4g}"
                      for m in better)
    per_round = pair["faults_per_round"]
    outputs = ("equal" if pair["outputs_equal"] else
               f"DIFFER ({', '.join(pair['outputs_differ'])})")
    print(f"pair {n} seed {seed} ({sides[0]} first): {shown}  "
          f"minor_faults {faults['parent']}/{faults['change']}  "
          f"rounds {rounds['parent']}/{rounds['change']}  "
          f"faults/round {per_round['parent']:.4g}/{per_round['change']:.4g}"
          f"  outputs {outputs}  correct {pair['correct']}", flush=True)
    return pair, {runs[s][1]["outputs"]["blas_threads"] for s in runs}


def print_summary(summary: dict) -> None:
    """One line per metric, then the minor page faults and the faults per
    round."""
    for name, m in summary["metrics"].items():
        print(f"{name}: parent {m['parent_median']:.4g} "
              f"({m['parent_quartiles'][0]:.4g}-{m['parent_quartiles'][1]:.4g})"
              f" -> change {m['change_median']:.4g} "
              f"({m['change_quartiles'][0]:.4g}-{m['change_quartiles'][1]:.4g})"
              + (f", pair ratio {m['pair_ratio_median']:.4g} "
                 f"({m['pair_ratio_quartiles'][0]:.4g}-"
                 f"{m['pair_ratio_quartiles'][1]:.4g})"
                 if m["pair_ratio_median"] is not None else "")
              + f", wins {m['wins']}/{summary['pairs']}, losses {m['losses']}"
              f", claimable {m['claimable']}"
              + (f", within bound {m['bound']:.0%} {m['within_bound']}"
                 if "bound" in m else ""))
    for key in ("minor_faults", "faults_per_round"):
        faults = summary[key]
        old_q, new_q = (faults[f"{side}_quartiles"]
                        for side in ("parent", "change"))
        print(f"{key} (not gated): parent "
              f"{faults['parent_median']:.4g} ({old_q[0]:.4g}-{old_q[1]:.4g})"
              f" -> change {faults['change_median']:.4g} "
              f"({new_q[0]:.4g}-{new_q[1]:.4g})")


def failure(exc: RunFailed, args) -> dict:
    """Print a failed run and return its ``failed_run`` record entry."""
    side = "parent" if exc.checkout == args.parent else "change"
    print(f"run failed: seed {exc.seed}, {side}, exit code {exc.code}; "
          "stderr ends:", *exc.stderr_tail, sep="\n", flush=True)
    return {"seed": exc.seed, "side": side, "exit_code": exc.code,
            "stderr_tail": exc.stderr_tail}


def append_record(path: str, record: dict) -> None:
    """Append ``record`` to the runs of the JSON file at ``path``, creating
    the file when it does not exist."""
    doc = {"runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["runs"].append(record)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's smoke sizes: a control "
                        "for setup_s, not a measure of any workload")
    parser.add_argument("--out", help="append the summary, settings and "
                        "pair rows to the runs in this JSON file")
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]
              if "bound" in m}
    counts = [m["name"] for m in spec.get("per_layer", ())
              if m["unit"] == "count"]

    no_bytecode = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    print(f"PYTHONDONTWRITEBYTECODE {'set' if no_bytecode else 'not set'}"
          + (": setup_s includes compiling every module" if no_bytecode
             else ""), flush=True)
    pairs = []
    blas_threads = set()
    failed_run = layers = None
    try:
        for n, seed in enumerate(args.seeds):
            pair, threads = run_pair(args, n, seed, better)
            pairs.append(pair)
            blas_threads |= threads
        if args.trace:
            layers = traced_layers(args, counts)
    except RunFailed as exc:
        failed_run = failure(exc, args)

    summary = {"pairs": len(pairs)}
    if pairs:
        summary = summarize(pairs, better, bounds)
        summary["correct"] = sum(p["correct"] for p in pairs)
        summary["minor_faults"] = fault_summary(pairs)
        summary["faults_per_round"] = fault_summary(pairs, "faults_per_round")
    if args.smoke:
        summary["smoke"] = SMOKE_NOTE
        print(f"smoke: {SMOKE_NOTE}")
    if pairs:
        print_summary(summary)
    if layers is not None:
        for name, (old, new) in layers["counts_differ"].items():
            print(f"traced {name}: parent {old} -> change {new}")
    print(json.dumps(summary))
    if args.out:
        record = {
            "workload": args.workload, "seeds": args.seeds,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke,
            "parent_commit": git_commit(args.parent),
            "change_commit": git_commit(args.change),
            "blas_threads": sorted(blas_threads),
            "numpy": importlib.metadata.version("numpy"),
            "pythondontwritebytecode": no_bytecode,
            "rows": pairs, "summary": summary,
        }
        if layers is not None:
            record["layers"] = layers
        if failed_run is not None:
            record["failed_run"] = failed_run
        append_record(args.out, record)
    return 0 if failed_run is None else 1

if __name__ == "__main__":
    sys.exit(main())
