import importlib.util
import json
import os

import numpy as np
import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def pair(old, new, equal=True):
    return {"parent": old, "change": new, "outputs_equal": equal}


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        pairs = [pair({"rate": a, "time": c}, {"rate": b, "time": d})
                 for a, b, c, d in ((10, 15, 3.0, 2.0), (12, 18, 3.2, 2.1),
                                    (11, 11, 3.1, 3.5), (13, 20, 2.9, 2.0),
                                    (9, 16, 3.3, 1.9))]
        got = ab_pairs.summarize(pairs, {"rate": "higher", "time": "lower"})
        rate, time = got["metrics"]["rate"], got["metrics"]["time"]
        assert got["pairs"] == 5 and got["outputs_equal"] == 5
        assert rate["parent_median"] == 11 and rate["change_median"] == 16
        assert rate["parent_quartiles"] == (10, 12)
        assert rate["change_quartiles"] == (15, 18)
        assert rate["ratio"] == pytest.approx(16 / 11)
        # the tie in pair 2 counts for neither side
        assert (rate["wins"], rate["losses"]) == (4, 0)
        assert not rate["claimable"]  # 4 of 5 wins is below nine tenths
        # lower is better: pair 2 is a loss
        assert (time["wins"], time["losses"]) == (4, 1)
        assert time["parent_median"] == 3.1 and time["change_median"] == 2.0

    def test_claim_needs_gap_beyond_parent_spread(self):
        wide = [pair({"rate": a}, {"rate": a + 1}) for a in (10, 20, 30, 40)]
        got = ab_pairs.summarize(wide, {"rate": "higher"})
        assert got["metrics"]["rate"]["wins"] == 4
        assert not got["metrics"]["rate"]["claimable"]
        narrow = [pair({"rate": a}, {"rate": a + 5}) for a in (10, 11, 12, 13)]
        got = ab_pairs.summarize(narrow, {"rate": "higher"})
        assert got["metrics"]["rate"]["claimable"]

    def test_single_pair_and_output_disagreement(self):
        got = ab_pairs.summarize([pair({"t": 2.0}, {"t": 1.0}, equal=False)],
                                 {"t": "lower"})
        assert got["outputs_equal"] == 0
        assert got["metrics"]["t"]["parent_quartiles"] == (2.0, 2.0)
        assert got["metrics"]["t"]["wins"] == 1


    def test_per_pair_ratios_see_through_host_drift(self):
        """Host drift between pairs widens the parent's quartiles, but the
        change is 1.1x the parent in every pair; a pair whose parent value
        is 0 has no ratio. The claim rule stays the two-median one."""
        pairs = [pair({"rate": a}, {"rate": 1.1 * a})
                 for a in (100, 200, 300, 400)]
        got = ab_pairs.summarize(pairs + [pair({"rate": 0}, {"rate": 5})],
                                 {"rate": "higher"})["metrics"]["rate"]
        assert got["pair_ratio_median"] == pytest.approx(1.1)
        assert got["pair_ratio_quartiles"] == pytest.approx((1.1, 1.1))
        assert got["wins"] == 5 and not got["claimable"]
        got = ab_pairs.summarize([pair({"t": 0}, {"t": 1})],
                                 {"t": "lower"})["metrics"]["t"]
        assert got["pair_ratio_median"] is None
        assert got["pair_ratio_quartiles"] is None


def test_parse_seeds():
    assert ab_pairs.parse_seeds("3") == [3]
    assert ab_pairs.parse_seeds("0-3") == [0, 1, 2, 3]
    assert ab_pairs.parse_seeds("1,4-5,9") == [1, 4, 5, 9]


def fake_run(checkout, workload, seed, seconds, trace, smoke=False):
    """A benchmark run's result line and detail file, without running it."""
    change = checkout.endswith("change")
    speed = 100.0 + seed + (10.0 if change else 0.0)
    result = {"correct": True,
              "minor_faults": 1000 * seed + (1 if change else 5),
              "metrics": {"steps_per_s": {"value": speed},
                          "cpu_s": {"value": 1.0}}}
    detail = {"round_outputs": {"sha": "a" if seed != 2 else checkout},
              "outputs": {"blas_threads": 1, "rounds": 5 if change else 1}}
    return result, detail


def test_out_file_records_settings_rows_and_summary(tmp_path, monkeypatch):
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        (dirs[side] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "steps_per_s", "better": "higher"},
                            {"name": "cpu_s", "better": "lower"}]}))
    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    argv = [str(dirs["parent"]), str(dirs["change"]), "--workload", "train",
            "--seeds", "0-3", "--seconds", "0", "--out", str(out)]
    assert ab_pairs.main(argv) == 0
    assert ab_pairs.main(argv[:4] + ["--seeds", "7"] + argv[6:]) == 0
    first, second = json.loads(out.read_text())["runs"]
    assert first["workload"] == "train" and first["seeds"] == [0, 1, 2, 3]
    assert first["seconds"] == 0.0 and first["blas_threads"] == [1]
    assert first["numpy"] == np.__version__
    # the temporary checkouts are not git repositories
    assert first["parent_commit"] is None and first["change_commit"] is None
    rows = first["rows"]
    assert [r["seed"] for r in rows] == [0, 1, 2, 3]
    assert [r["first"] for r in rows] == ["parent", "change"] * 2
    assert [r["outputs_equal"] for r in rows] == [True, True, False, True]
    assert [r["outputs_differ"] for r in rows] == [[], [], ["sha"], []]
    assert rows[1]["change"]["steps_per_s"] == 111.0
    summary = first["summary"]
    assert summary["pairs"] == 4 and summary["outputs_equal"] == 3
    assert summary["correct"] == 4
    assert summary["metrics"]["steps_per_s"]["wins"] == 4
    assert second["seeds"] == [7] and len(second["rows"]) == 1
    # page faults: per pair and side, summarised without wins or a claim
    assert [r["minor_faults"] for r in rows[:2]] == [
        {"parent": 5, "change": 1}, {"parent": 1005, "change": 1001}]
    assert summary["minor_faults"] == {
        "parent_median": 1505.0, "parent_quartiles": [755.0, 2255.0],
        "change_median": 1501.0, "change_quartiles": [751.0, 2251.0]}
    assert "minor_faults" not in summary["metrics"]


def test_prints_and_records_rounds_and_faults_per_round(tmp_path,
                                                        monkeypatch, capsys):
    """Each pair shows both runs' round counts and minor faults per round,
    and the summary gives the per-round faults' medians and quartiles: a
    side that runs more rounds in the same time faults more in total."""
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        (dirs[side] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "steps_per_s", "better": "higher"}]}))
    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert ab_pairs.main([str(dirs["parent"]), str(dirs["change"]),
                          "--workload", "explore", "--seeds", "1-3",
                          "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    pairs = [line for line in lines if line.startswith("pair ")]
    assert "minor_faults 1005/1001  rounds 1/5  faults/round 1005/200.2" in (
        pairs[0])
    (record,) = json.loads(out.read_text())["runs"]
    rows = record["rows"]
    assert [r["rounds"] for r in rows] == [{"parent": 1, "change": 5}] * 3
    assert rows[1]["faults_per_round"] == {"parent": 2005.0,
                                           "change": 2001 / 5}
    summary = record["summary"]
    per_round = summary["faults_per_round"]
    assert per_round["parent_median"] == 2005.0
    assert per_round["parent_quartiles"] == [1505.0, 2505.0]
    assert per_round["change_median"] == pytest.approx(400.2)
    assert per_round["change_quartiles"] == pytest.approx([300.2, 500.2])
    assert summary["minor_faults"]["change_median"] == 2001
    assert ("faults_per_round (not gated): parent 2005 (1505-2505) -> "
            "change 400.2 (300.2-500.2)") in lines
    assert "faults_per_round" not in summary["metrics"]


def test_names_the_output_keys_that_differ(tmp_path, monkeypatch, capsys):
    """Each pair prints and records which round outputs differ, a key that
    only one side reports included."""
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        (dirs[side] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "steps_per_s", "better": "higher"}]}))

    def run(checkout, workload, seed, seconds, trace, smoke=False):
        result, detail = fake_run(checkout, workload, seed, seconds, trace)
        outputs = {"nodes": 68, "params_sha256": "p",
                   "best_params_sha256": "b"}
        if checkout.endswith("change") and seed > 0:
            outputs.update(params_sha256="P", best_params_sha256="B")
        if checkout.endswith("change") and seed > 1:
            outputs["extra"] = 1
        return result, {**detail, "round_outputs": outputs}

    monkeypatch.setattr(ab_pairs, "run_once", run)
    out = tmp_path / "bench.json"
    assert ab_pairs.main([str(dirs["parent"]), str(dirs["change"]),
                          "--workload", "train", "--seeds", "0-2",
                          "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("pair ")]
    assert "outputs equal" in lines[0]
    assert "outputs DIFFER (best_params_sha256, params_sha256)" in lines[1]
    assert ("outputs DIFFER (best_params_sha256, extra, params_sha256)"
            in lines[2])
    (record,) = json.loads(out.read_text())["runs"]
    assert [r["outputs_differ"] for r in record["rows"]] == [
        [], ["best_params_sha256", "params_sha256"],
        ["best_params_sha256", "extra", "params_sha256"]]
    assert [r["outputs_equal"] for r in record["rows"]] == [True, False, False]
    assert record["summary"]["outputs_equal"] == 1


@pytest.mark.parametrize("value, recorded", [(None, False), ("", False),
                                             ("1", True)])
def test_records_whether_bytecode_writing_is_off(tmp_path, monkeypatch,
                                                 capsys, value, recorded):
    """PYTHONDONTWRITEBYTECODE is printed once and stored in the record:
    when set, every run's setup_s includes compiling the sources."""
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        (dirs[side] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "steps_per_s", "better": "higher"}]}))
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert ab_pairs.main([str(dirs["parent"]), str(dirs["change"]),
                          "--workload", "navigate", "--seeds", "0-1",
                          "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "PYTHONDONTWRITEBYTECODE" in line]
    assert lines == [f"PYTHONDONTWRITEBYTECODE "
                     f"{'set' if recorded else 'not set'}"
                     + (": setup_s includes compiling every module"
                        if recorded else "")]
    (record,) = json.loads(out.read_text())["runs"]
    assert record["pythondontwritebytecode"] is recorded


def test_run_once_counts_the_child_page_faults(tmp_path, monkeypatch):
    """The faults of a run are the RUSAGE_CHILDREN ``ru_minflt`` taken
    after the benchmark subprocess minus the one taken before it."""
    (tmp_path / "benchmark" / "out").mkdir(parents=True)
    (tmp_path / "benchmark" / "out" / "train-seed3-trace0.json").write_text(
        json.dumps({"round_outputs": {}}))
    counts = iter([40, 1040])
    events = []

    class Usage:
        def __init__(self, minflt):
            self.ru_minflt = minflt

    def getrusage(who):
        assert who == ab_pairs.resource.RUSAGE_CHILDREN
        events.append("rusage")
        return Usage(next(counts))

    class Proc:
        stdout = 'noise\n{"correct": true, "metrics": {}}\n'

    def run(cmd, **kwargs):
        events.append("run")
        assert kwargs["cwd"] == str(tmp_path) and "--seed" in cmd
        return Proc()

    monkeypatch.setattr(ab_pairs.resource, "getrusage", getrusage)
    monkeypatch.setattr(ab_pairs.subprocess, "run", run)
    result, detail = ab_pairs.run_once(str(tmp_path), "train", 3, 0, 0)
    assert events == ["rusage", "run", "rusage"]
    assert result == {"correct": True, "metrics": {}, "minor_faults": 1000}
    assert detail == {"round_outputs": {}}


def test_trace_times_pairs_untraced_and_records_layer_rows(
        tmp_path, monkeypatch, capsys):
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        (dirs[side] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "steps_per_s", "better": "higher"}],
             "per_layer": [{"name": "f.calls", "unit": "count"},
                           {"name": "g.calls", "unit": "count"},
                           {"name": "f.self_s", "unit": "s"}]}))
    calls = []

    def traced_run(checkout, workload, seed, seconds, trace, smoke=False):
        calls.append((os.path.basename(checkout), seed, seconds, trace))
        if not trace:
            return fake_run(checkout, workload, seed, seconds, trace)
        change = checkout.endswith("change")
        # layer metrics only, as a traced benchmark run reports them
        result = {"correct": True, "minor_faults": 0,
                  "metrics": {"f.calls": {"value": 50 if change else 200},
                              "g.calls": {"value": 7},
                              "f.self_s": {"value": 0.1 if change else 0.3}}}
        return result, {"round_outputs": {"sha": "a"},
                        "outputs": {"blas_threads": 1}}

    monkeypatch.setattr(ab_pairs, "run_once", traced_run)
    out = tmp_path / "bench.json"
    assert ab_pairs.main([str(dirs["parent"]), str(dirs["change"]),
                          "--workload", "explore", "--seeds", "4-5",
                          "--seconds", "20", "--trace", "1",
                          "--out", str(out)]) == 0
    # two untraced pairs, then one traced run per side on the first seed
    assert calls == [("parent", 4, 20.0, 0), ("change", 4, 20.0, 0),
                     ("change", 5, 20.0, 0), ("parent", 5, 20.0, 0),
                     ("parent", 4, 0, 1), ("change", 4, 0, 1)]
    lines = capsys.readouterr().out.splitlines()
    assert "traced f.calls: parent 200 -> change 50" in lines
    assert not any("g.calls" in line for line in lines)
    assert json.loads(lines[-1])["pairs"] == 2
    (record,) = json.loads(out.read_text())["runs"]
    assert record["trace"] == 1
    assert record["summary"]["metrics"]["steps_per_s"]["wins"] == 2
    layers = record["layers"]
    assert layers["seed"] == 4 and layers["outputs_equal"]
    assert layers["parent"] == {"f.calls": 200, "g.calls": 7, "f.self_s": 0.3}
    assert layers["change"]["f.calls"] == 50
    assert layers["counts_differ"] == {"f.calls": [200, 50]}


def test_marks_each_bounded_median_within_its_bound(tmp_path, monkeypatch,
                                                    capsys):
    """A metric with a bound in BENCHMARK.json is within it when the
    change's median is worse than the parent's by at most that fraction;
    a metric without a bound gets no mark."""
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        (dirs[side] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [
                {"name": "steps_per_s", "better": "higher", "bound": 0.25},
                {"name": "cpu_s", "better": "lower", "bound": 0.1},
                {"name": "rss", "better": "lower", "bound": 0.1},
                {"name": "setup", "better": "lower"}]}))

    def run(checkout, workload, seed, seconds, trace, smoke=False):
        change = checkout.endswith("change")
        values = {"steps_per_s": 100.0 if change else 130.0,  # 23% worse
                  "cpu_s": 1.2 if change else 1.0,  # 20% worse
                  "rss": 9.0 if change else 10.0,  # better
                  "setup": 5.0 if change else 1.0}
        result = {"correct": True, "minor_faults": 0,
                  "metrics": {m: {"value": v} for m, v in values.items()}}
        return result, {"round_outputs": {},
                        "outputs": {"blas_threads": 1, "rounds": 1}}

    monkeypatch.setattr(ab_pairs, "run_once", run)
    out = tmp_path / "bench.json"
    assert ab_pairs.main([str(dirs["parent"]), str(dirs["change"]),
                          "--workload", "train", "--seeds", "0-2",
                          "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    shown = {line.split(":")[0]: line for line in lines
             if line.startswith(("steps_per_s:", "cpu_s:", "rss:", "setup:"))}
    assert shown["steps_per_s"].endswith("within bound 25% True")
    assert shown["cpu_s"].endswith("within bound 10% False")
    assert shown["rss"].endswith("within bound 10% True")
    assert "within bound" not in shown["setup"]
    (record,) = json.loads(out.read_text())["runs"]
    metrics = record["summary"]["metrics"]
    assert json.loads(lines[-1])["metrics"] == metrics
    assert {m: (v.get("bound"), v.get("within_bound"))
            for m, v in metrics.items()} == {
        "steps_per_s": (0.25, True), "cpu_s": (0.1, False),
        "rss": (0.1, True), "setup": (None, None)}
    assert "bound" not in metrics["setup"]


def test_smoke_is_forwarded_and_marked(tmp_path, monkeypatch, capsys):
    """--smoke reaches every benchmark run, traced ones included, and the
    summary says that smoke steps_per_s measures no workload."""
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        (dirs[side] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "steps_per_s", "better": "higher"}]}))
    forwarded = []

    def run(checkout, workload, seed, seconds, trace, smoke=False):
        forwarded.append(smoke)
        return fake_run(checkout, workload, seed, seconds, trace)

    monkeypatch.setattr(ab_pairs, "run_once", run)
    out = tmp_path / "bench.json"
    argv = [str(dirs["parent"]), str(dirs["change"]), "--workload",
            "navigate", "--seeds", "0-1", "--seconds", "0", "--out", str(out)]
    assert ab_pairs.main(argv + ["--smoke", "--trace", "1"]) == 0
    assert forwarded == [True] * 6  # two pairs, then one traced run a side
    lines = capsys.readouterr().out.splitlines()
    assert f"smoke: {ab_pairs.SMOKE_NOTE}" in lines
    assert "does not measure a workload" in ab_pairs.SMOKE_NOTE
    assert json.loads(lines[-1])["smoke"] == ab_pairs.SMOKE_NOTE
    forwarded.clear()
    assert ab_pairs.main(argv) == 0
    assert forwarded == [False] * 4
    assert "smoke" not in json.loads(capsys.readouterr().out.splitlines()[-1])
    smoke, full = json.loads(out.read_text())["runs"]
    assert smoke["smoke"] is True and full["smoke"] is False
    assert smoke["summary"]["smoke"] == ab_pairs.SMOKE_NOTE


def test_run_once_passes_smoke_to_the_benchmark(tmp_path, monkeypatch):
    (tmp_path / "benchmark" / "out").mkdir(parents=True)
    (tmp_path / "benchmark" / "out" / "train-seed3-trace0.json").write_text(
        json.dumps({"round_outputs": {}}))
    commands = []

    class Proc:
        stdout = '{"correct": true, "metrics": {}}\n'

    def run(cmd, **kwargs):
        commands.append(cmd)
        return Proc()

    monkeypatch.setattr(ab_pairs.subprocess, "run", run)
    ab_pairs.run_once(str(tmp_path), "train", 3, 0, 0, smoke=True)
    ab_pairs.run_once(str(tmp_path), "train", 3, 0, 0)
    assert commands[0][-1] == "--smoke"
    assert "--smoke" not in commands[1]


def test_failed_run_keeps_the_completed_pairs(tmp_path, monkeypatch, capsys):
    """A run that exits non-zero is named with the tail of its stderr; the
    pairs before it are summarised and recorded with a ``failed_run``
    entry, no trace follows, and the exit status is 1."""
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        (dirs[side] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "steps_per_s", "better": "higher"}]}))
    calls = []

    def run(checkout, workload, seed, seconds, trace, smoke=False):
        calls.append((os.path.basename(checkout), seed, trace))
        if seed == 2 and checkout.endswith("change"):
            stderr = "".join(f"line {i}\n" for i in range(30))
            raise ab_pairs.RunFailed(checkout, seed, 3, stderr)
        return fake_run(checkout, workload, seed, seconds, trace)

    monkeypatch.setattr(ab_pairs, "run_once", run)
    out = tmp_path / "bench.json"
    assert ab_pairs.main([str(dirs["parent"]), str(dirs["change"]),
                          "--workload", "train", "--seeds", "0-3",
                          "--seconds", "0", "--trace", "1",
                          "--out", str(out)]) == 1
    assert calls[-1] == ("change", 2, 0)  # no later pair and no trace
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("run failed: seed 2, change, exit code 3; stderr ends:")
    assert lines[at + 1:at + 21] == [f"line {i}" for i in range(10, 30)]
    assert any(line.startswith("steps_per_s: parent") for line in lines)
    assert json.loads(lines[-1])["pairs"] == 2
    record, = json.loads(out.read_text())["runs"]
    assert [r["seed"] for r in record["rows"]] == [0, 1]
    assert record["summary"]["metrics"]["steps_per_s"]["wins"] == 2
    assert record["failed_run"] == {
        "seed": 2, "side": "change", "exit_code": 3,
        "stderr_tail": [f"line {i}" for i in range(10, 30)]}
    assert "layers" not in record


def test_failed_first_run_records_no_pairs(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "steps_per_s", "better": "higher"}]}))

    def run(checkout, workload, seed, seconds, trace, smoke=False):
        raise ab_pairs.RunFailed(checkout, seed, 1, "Traceback\nboom\n")

    monkeypatch.setattr(ab_pairs, "run_once", run)
    out = tmp_path / "bench.json"
    assert ab_pairs.main([str(tmp_path), str(tmp_path / "change"),
                          "--workload", "train", "--seeds", "5",
                          "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {
        "pairs": 0}
    record, = json.loads(out.read_text())["runs"]
    assert record["rows"] == [] and record["failed_run"]["side"] == "parent"
    assert record["failed_run"]["stderr_tail"] == ["Traceback", "boom"]


def test_run_once_raises_on_a_failed_run(tmp_path, monkeypatch):
    def run(cmd, **kwargs):
        assert kwargs["check"] is True
        raise ab_pairs.subprocess.CalledProcessError(
            2, cmd, output="", stderr="a\nb\n")

    monkeypatch.setattr(ab_pairs.subprocess, "run", run)
    with pytest.raises(ab_pairs.RunFailed) as info:
        ab_pairs.run_once(str(tmp_path), "navigate", 4, 0, 0)
    assert (info.value.checkout, info.value.seed, info.value.code) == (
        str(tmp_path), 4, 2)
    assert info.value.stderr_tail == ["a", "b"]


def test_prints_and_records_per_pair_ratios(tmp_path, monkeypatch, capsys):
    """The summary line of each metric shows the median and quartiles of the
    per-pair ratios, change over parent, next to the two medians, and the
    record keeps them."""
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        (dirs[side] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "steps_per_s", "better": "higher"},
                            {"name": "cpu_s", "better": "lower"}]}))
    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert ab_pairs.main([str(dirs["parent"]), str(dirs["change"]),
                          "--workload", "navigate", "--seeds", "0-3",
                          "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    ratios = [(110 + s) / (100 + s) for s in range(4)]
    (record,) = json.loads(out.read_text())["runs"]
    rate = record["summary"]["metrics"]["steps_per_s"]
    assert rate["pair_ratio_median"] == pytest.approx(
        (ratios[1] + ratios[2]) / 2)
    assert rate["pair_ratio_quartiles"] == pytest.approx(
        ab_pairs.quartiles(ratios))
    assert record["summary"]["metrics"]["cpu_s"]["pair_ratio_median"] == 1.0
    (line,) = [x for x in lines if x.startswith("steps_per_s:")]
    q1, q3 = ab_pairs.quartiles(ratios)
    assert (f"-> change 111.5 (110.8-112.2), pair ratio "
            f"{rate['pair_ratio_median']:.4g} ({q1:.4g}-{q3:.4g}), wins 4/4"
            ) in line
