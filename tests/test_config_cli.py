import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from dgmem import cli, config as cfgmod, learner
from dgmem.graph import GraphMemory
from dgmem.gridworld import GridEnv

PRUNE_S = 100.0  # seconds a pruning takes on a test clock


class TestConfig:
    def test_defaults_complete_and_valid(self):
        cfg = cfgmod.make_config()
        assert cfg["learner.total_steps"] == 250000
        assert cfg["reward.alpha"] == 0.2
        assert cfg["learner.clip"] == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.make_config({"learner.bogus": 1})

    def test_override_applies(self):
        cfg = cfgmod.make_config({"seed": 7})
        assert cfg["seed"] == 7

    def test_parse_serialize_parse_identity(self):
        cfg = cfgmod.make_config({"env.noise": 0.25, "seed": 3})
        again = cfgmod.loads(cfgmod.dumps(cfg))
        assert again == cfg

    def test_bad_syntax_rejected(self):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.loads("seed: [unclosed")

    def test_non_mapping_rejected(self):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.loads("- a\n- b\n")

    def test_empty_file_gives_defaults(self):
        assert cfgmod.loads("") == cfgmod.make_config()

    def test_invalid_values_rejected(self):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.make_config({"sampler.temperature": 0.0})
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.make_config({"learner.nsteps": 0})


class TestBuilders:
    def test_build_map_four_rooms(self):
        grid = cli.build_map(cfgmod.make_config())
        assert len(grid.free_cells()) == 256

    def test_build_map_maze(self):
        grid = cli.build_map(cfgmod.make_config({"env.map": "maze"}))
        assert grid.free_cells()

    def test_build_map_from_file(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("#####\n#...#\n#####\n")
        grid = cli.build_map(cfgmod.make_config({"env.map_file": str(path)}))
        assert len(grid.free_cells()) == 3

    def test_build_map_unknown_rejected(self):
        cfg = cfgmod.make_config()
        cfg["env.map"] = "nonsense"
        with pytest.raises(cfgmod.ConfigError):
            cli.build_map(cfg)


class TestCliCommands:
    def train_args(self, out, steps=1200):
        return ["train", "--out", str(out), "--steps", str(steps),
                "--seed", "0"]

    def test_train_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(self.train_args(out)) == 0
        for name in ("config.yaml", "checkpoint.ckpt", "checkpoint_final.ckpt",
                     "graph.dgm", "train_log.jsonl", "coverage.csv"):
            assert (out / name).exists(), name

    def test_train_log_is_json_lines(self, tmp_path):
        out = tmp_path / "run"
        cli.main(self.train_args(out))
        lines = (out / "train_log.jsonl").read_text().strip().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert {"step", "r_d", "r_n", "r_s", "total"} <= set(rec)

    def test_coverage_csv_monotone(self, tmp_path):
        out = tmp_path / "run"
        cli.main(self.train_args(out))
        rows = (out / "coverage.csv").read_text().strip().splitlines()[1:]
        cov = [float(r.split(",")[1]) for r in rows]
        assert all(b >= a for a, b in zip(cov, cov[1:]))

    def test_eval_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli.main(self.train_args(out))
        code = cli.main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--graph", str(out / "graph.dgm"),
                         "--episodes", "5", "--seed", "1",
                         "--out", str(tmp_path / "eval")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"sr", "spl", "mean_dts", "episodes", "reasons",
                "mean_replans", "memo_entries"} <= set(summary)
        # entries of each navigator.Memo table after the evaluation
        sizes = summary["memo_entries"]
        assert set(sizes) == {"query", "route", "views", "targets", "goals"}
        assert all(isinstance(n, int) and n >= 0 for n in sizes.values())
        assert sizes["query"] > 0 and sizes["targets"] > 0
        # one goal node per distinct goal, at most one per episode
        assert 0 < sizes["goals"] <= 5 and sizes["views"] > 0
        assert 0 < sizes["route"] <= len(GraphMemory.restore(
            (out / "graph.dgm").read_text()))
        report = json.loads((tmp_path / "eval" / "eval_report.json")
                            .read_text())
        records = report.pop("records")
        assert report == summary
        reasons = {}
        for rec in records:
            reasons[rec["reason"]] = reasons.get(rec["reason"], 0) + 1
        assert summary["reasons"] == reasons
        assert sum(reasons.values()) == summary["episodes"] == 5
        assert all(0 <= rec["collisions"] <= rec["steps"] for rec in records)
        assert summary["mean_replans"] == pytest.approx(
            sum(rec["replans"] for rec in records) / 5)
        assert (tmp_path / "eval" / "eval_episodes.csv").exists()

    def test_eval_missing_artifact_fails_cleanly(self, tmp_path):
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                         "--graph", str(tmp_path / "no.dgm")])
        assert code == 2

    def test_explore_random_reports_coverage(self, tmp_path, capsys):
        code = cli.main(["explore", "--agent", "random", "--steps", "2000",
                         "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 < summary["coverage"] <= 1.0
        assert (tmp_path / "coverage_random.json").exists()

    def test_render_map_only(self, tmp_path):
        svg = tmp_path / "map.svg"
        assert cli.main(["render", "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_render_with_graph(self, tmp_path):
        out = tmp_path / "run"
        cli.main(self.train_args(out))
        svg = tmp_path / "graph.svg"
        assert cli.main(["render", "--graph", str(out / "graph.dgm"),
                         "--out", str(svg)]) == 0
        text = svg.read_text()
        assert 'class="node"' in text

    def test_render_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli.main(["render", "--out", str(a)])
        cli.main(["render", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_resume_continues_training(self, tmp_path):
        out = tmp_path / "run"
        cli.main(self.train_args(out, steps=1200))
        first = (out / "graph.dgm").read_text()
        code = cli.main(self.train_args(out, steps=600) + ["--resume"])
        assert code == 0
        assert (out / "graph.dgm").read_text() != first

    def test_resume_starts_at_graph_origin(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert cli.main(self.train_args(out, steps=1500)) == 0
        graph = GraphMemory.restore((out / "graph.dgm").read_text())
        starts = []
        training_loop = learner.training_loop

        def recording(env, graph, enc, cfg, **kwargs):
            starts.append((kwargs.get("state"), env.spawn(np.random.default_rng(
                np.random.SeedSequence(int(cfg["seed"])).spawn(4)[0]))))
            return training_loop(env, graph, enc, cfg, **kwargs)

        monkeypatch.setattr(learner, "training_loop", recording)
        args = ["train", "--out", str(out), "--steps", "300", "--seed", "1"]
        assert cli.main(args + ["--resume"]) == 0
        (state, spawn), = starts
        # the seed-1 spawn is elsewhere; the resumed agent starts at the
        # origin of the restored graph, with a zero pose estimate
        assert (spawn.x, spawn.y) != graph.origin[:2]
        assert (state.x, state.y, state.heading) == graph.origin
        assert not state.pose_est.any()
        # a fresh run still spawns from its seed
        assert cli.main(args[:2] + [str(tmp_path / "fresh")] + args[3:]) == 0
        assert starts[1][0] is None

    def test_resume_with_origin_off_the_map_fails_cleanly(self, tmp_path,
                                                          capsys):
        out = tmp_path / "run"
        assert cli.main(self.train_args(out, steps=300)) == 0
        graph = GraphMemory.restore((out / "graph.dgm").read_text())
        graph.origin = (0.0, 0.0, 0.0)  # a wall cell of FourRooms
        (out / "graph.dgm").write_text(graph.snapshot())
        code = cli.main(self.train_args(out, steps=300) + ["--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "artifact error:" in err and "origin" in err

    def test_resume_without_artifacts_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "train_log.jsonl").write_text("old\n")
        code = cli.main(self.train_args(out, steps=300) + ["--resume"])
        assert code == 2
        assert "artifact error:" in capsys.readouterr().err
        assert (out / "train_log.jsonl").read_text() == "old\n"
        assert not (out / "graph.dgm").exists()

    def test_resume_with_corrupt_checkpoint_fails_cleanly(self, tmp_path,
                                                          capsys):
        out = tmp_path / "run"
        assert cli.main(self.train_args(out, steps=300)) == 0
        (out / "checkpoint_final.ckpt").write_bytes(b"dgmem-ckpt-v1\n{]")
        code = cli.main(self.train_args(out, steps=300) + ["--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "artifact error:" in err and "checkpoint_final.ckpt" in err

    def test_eval_non_utf8_graph_fails_cleanly(self, tmp_path, capsys):
        ckpt = tmp_path / "net.ckpt"
        learner.save_checkpoint(str(ckpt), learner.ActorCritic(259, 4))
        graph = tmp_path / "graph.dgm"
        graph.write_bytes(b"dgmem-graph-v1\n\xff\xfe\x00")
        code = cli.main(["eval", "--checkpoint", str(ckpt),
                         "--graph", str(graph)])
        assert code == 2
        err = capsys.readouterr().err
        assert "artifact error:" in err and "graph.dgm" in err

    def test_train_log_has_one_update_record_per_ppo_update(
            self, tmp_path, monkeypatch):
        calls = []
        ppo_update = learner.ppo_update

        def counting(*args, **kwargs):
            calls.append(1)
            return ppo_update(*args, **kwargs)

        monkeypatch.setattr(learner, "ppo_update", counting)
        # the learner's clock ticks 1 ms per reading, and a pruning takes
        # PRUNE_S on it
        now = [0.0]

        def perf_counter():
            now[0] += 1e-3
            return now[0]

        prune_edges = GraphMemory.prune_edges
        removed = []  # edges each pruning removed

        def slow_prune(graph, *args):
            now[0] += PRUNE_S
            edges = prune_edges(graph, *args)
            removed.append(len(edges))
            return edges

        monkeypatch.setattr(learner, "time",
                            SimpleNamespace(perf_counter=perf_counter))
        monkeypatch.setattr(GraphMemory, "prune_edges", slow_prune)
        out = tmp_path / "run"
        # prunes at steps 250, 500 and 750, one before each update
        cfg = tmp_path / "prune.yaml"
        cfg.write_text("graph.prune_every: 250\n")
        assert cli.main(self.train_args(out, steps=800)
                        + ["--config", str(cfg)]) == 0
        records = [json.loads(line) for line in
                   (out / "train_log.jsonl").read_text().splitlines()]
        updates = [r for r in records if r.get("kind") == "update"]
        assert len(calls) >= 2 and len(updates) == len(calls)
        keys = {"kind", "step", "policy_loss", "value_loss", "entropy",
                "approx_kl", "clip_frac", "il", "policy_forwards",
                "ppo_distinct", "nodes", "edges", "pruned", "collisions",
                "rollout_s", "prune_s", "ppo_s", "il_s"}
        for rec in updates:
            assert keys <= set(rec) <= keys | {"nan_abort"}
            assert set(rec["il"]) == {"ce", "kl", "n", "distinct"}
            # distinct policy inputs of the rollout, at most its nsteps; the
            # one PPO minibatch holds the same inputs
            assert 0 < rec["policy_forwards"] <= 256
            assert rec["ppo_distinct"] == rec["policy_forwards"]
            assert 0 <= rec["il"]["distinct"] <= rec["il"]["n"]
            assert (rec["il"]["distinct"] > 0) == (rec["il"]["n"] > 0)
            assert rec["nodes"] > 0 and rec["edges"] >= 0
            assert 0 <= rec["collisions"] <= 256
            # seconds of the update's phases, on the test clock
            assert rec["rollout_s"] > 0 and rec["ppo_s"] > 0
            assert rec["il_s"] > 0
        # each prune is timed apart from the rollout, in the record of the
        # next update
        assert [r["step"] for r in updates] == [256, 512, 768]
        for rec in updates:
            assert rec["prune_s"] == pytest.approx(PRUNE_S + 1e-3)
            assert rec["rollout_s"] < 1.0
        # and the edges it removed
        assert [r["pruned"] for r in updates] == removed
        assert sum(removed) > 0
        steps = [r["step"] for r in updates]
        assert steps == sorted(steps) and steps[-1] <= 800
        # the graph at each update: nodes are never removed
        nodes = [r["nodes"] for r in updates]
        assert nodes == sorted(nodes)
        snapshot = json.loads((out / "graph.dgm").read_text().split("\n")[1])
        assert nodes[-1] <= len(snapshot["nodes"])

    def test_train_bad_config_fails_cleanly(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("unknown.key: 1\n")
        code = cli.main(["train", "--config", str(bad),
                         "--out", str(tmp_path / "x")])
        assert code == 2

    def bad_config(self, tmp_path, text="bogus.key: 1\n"):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        return str(path)

    def test_explore_bad_config_fails_cleanly(self, tmp_path, capsys):
        code = cli.main(["explore", "--agent", "random", "--steps", "5",
                         "--config", self.bad_config(tmp_path)])
        assert code == 2
        assert "config error: unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("env.noise", "-1"), ("eval.noise", "-0.3"), ("eval.max_steps", "-1"),
        ("eval.subgoal_budget", "-5"), ("eval.max_replans", "-1"),
        ("eval.max_replans", "three")])
    def test_negative_setting_fails_cleanly(self, tmp_path, capsys, key,
                                            value):
        """A negative noise would run without noise and a negative budget
        or replan count would end every episode early; both exit 2, as
        does a value that is not a number (the budgets are integers)."""
        kind = "number" if key.endswith(".noise") else "integer"
        cfg = self.bad_config(tmp_path, f"{key}: {value}\n")
        if key == "env.noise":
            argv = ["explore", "--agent", "random", "--steps", "5",
                    "--config", cfg]
        else:
            argv = self.eval_args(tmp_path, cfg)
        assert cli.main(argv) == 2
        assert (f"config error: {key} must be a non-negative {kind}"
                in capsys.readouterr().err)

    def eval_args(self, tmp_path, cfg):
        return ["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                "--graph", str(tmp_path / "no.dgm"), "--config", cfg]

    @pytest.mark.parametrize("value", ["2.5", "true", "abc", "0", "-3"])
    def test_eval_episodes_must_be_a_positive_integer(self, tmp_path, capsys,
                                                      value):
        """Before, 2.5 ran 2 episodes, true ran 1 and abc ended with
        ``eval error:``."""
        cfg = self.bad_config(tmp_path, f"eval.episodes: {value}\n")
        assert cli.main(self.eval_args(tmp_path, cfg)) == 2
        assert ("config error: eval.episodes must be a positive integer"
                in capsys.readouterr().err)

    def test_eval_episodes_flag_must_be_positive(self, tmp_path, capsys):
        argv = ["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                "--graph", str(tmp_path / "no.dgm"), "--episodes", "0"]
        assert cli.main(argv) == 2
        assert ("config error: eval.episodes must be a positive integer"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, value", [
        ("eval.max_steps", "2.5"), ("eval.max_steps", "true"),
        ("eval.subgoal_budget", "0.5"), ("eval.subgoal_budget", "false"),
        ("eval.max_replans", "1.5"), ("eval.max_replans", "true")])
    def test_eval_budget_must_be_an_integer(self, tmp_path, capsys, key,
                                            value):
        """Before, a fractional budget or replan count was truncated
        silently (a subgoal budget of 0.5 became 0), and a bool counted as
        0 or 1."""
        cfg = self.bad_config(tmp_path, f"{key}: {value}\n")
        assert cli.main(self.eval_args(tmp_path, cfg)) == 2
        assert (f"config error: {key} must be a non-negative integer"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, value", [
        ("eval.episodes", 1), ("eval.episodes", 1000),
        ("eval.max_steps", 0), ("eval.max_steps", 200),
        ("eval.subgoal_budget", 0), ("eval.subgoal_budget", 30),
        ("eval.max_replans", 0), ("eval.max_replans", 3)])
    def test_integer_eval_settings_accepted(self, key, value):
        cfg = cfgmod.loads(f"{key}: {value}\n")
        assert type(cfg[key]) is int and cfg[key] == value

    @pytest.mark.parametrize("key, value", [
        ("learner.nsteps", "abc"), ("learner.horizon", "0"),
        ("learner.epochs", "-1"), ("learner.minibatches", "0"),
        ("learner.il_steps", "-3"), ("learner.il_edges", "0"),
        ("graph.prune_every", "0"), ("learner.epochs", "true"),
        ("learner.nsteps", "2.5")])
    def test_non_positive_count_fails_cleanly(self, tmp_path, capsys, key,
                                              value):
        """A count that is not a positive integer exits 2 before training:
        before, a zero ``il_edges`` or ``prune_every`` crashed mid-run, a
        text ``nsteps`` raised TypeError, and a zero or negative
        ``epochs``, ``il_steps`` or ``minibatches`` ran without error."""
        out = tmp_path / "run"
        code = cli.main(["train", "--out", str(out), "--steps", "600",
                         "--config",
                         self.bad_config(tmp_path, f"{key}: {value}\n")])
        assert code == 2
        assert (f"config error: {key} must be a positive integer"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("graph.traj_cap: -1\n",
         "graph.traj_cap must be a positive integer, got -1"),
        ("learner.total_steps: -5\n",
         "learner.total_steps must be a positive integer, got -5"),
        ("learner.discount: 2.0\n",
         "learner.discount must be a number in [0, 1], got 2.0"),
        ("learner.gae_lambda: -0.5\n",
         "learner.gae_lambda must be a number in [0, 1], got -0.5")])
    def test_out_of_range_training_setting_fails_cleanly(self, tmp_path,
                                                         capsys, text,
                                                         message):
        """Before, each of these trained without error: a negative
        ``traj_cap`` kept no edge, a negative ``total_steps`` logged
        "trained -5 steps", and a discount or GAE lambda outside [0, 1]
        weighted future rewards by a growing or negative factor."""
        out = tmp_path / "run"
        code = cli.main(["train", "--out", str(out), "--config",
                         self.bad_config(tmp_path, text)])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("learner.minibatches: 300\n",
         "learner.minibatches must not exceed learner.nsteps (256), got 300"),
        ("learner.nsteps: 8\nlearner.minibatches: 9\n",
         "learner.minibatches must not exceed learner.nsteps (8), got 9"),
        ("reward.radius: -1\n",
         "reward.radius must be a positive finite number, got -1"),
        ("reward.radius: 0\n",
         "reward.radius must be a positive finite number, got 0"),
        ("reward.radius: .inf\n",
         "reward.radius must be a positive finite number, got inf"),
        ("reward.radius: near\n",
         "reward.radius must be a positive finite number, got 'near'"),
        ("reward.radius: true\n",
         "reward.radius must be a positive finite number, got True"),
        ("learner.beta: -1\n",
         "learner.beta must be a finite number >= 0, got -1"),
        ("learner.beta: .inf\n",
         "learner.beta must be a finite number >= 0, got inf"),
        ("learner.beta: strong\n",
         "learner.beta must be a finite number >= 0, got 'strong'"),
        ("learner.il_lr: abc\n",
         "learner.il_lr must be a positive finite number, got 'abc'"),
        ("learner.il_lr: -0.5\n",
         "learner.il_lr must be a positive finite number, got -0.5"),
        ("learner.il_lr: 0\n",
         "learner.il_lr must be a positive finite number, got 0"),
        ("sampler.temperature: hot\n",
         "sampler.temperature must be a positive finite number, got 'hot'"),
        ("sampler.temperature: true\n",
         "sampler.temperature must be a positive finite number, got True"),
        ("sampler.temperature: -2\n",
         "sampler.temperature must be a positive finite number, got -2"),
        ("sampler.temperature: .inf\n",
         "sampler.temperature must be a positive finite number, got inf")])
    def test_unusable_learner_setting_fails_cleanly(self, tmp_path, capsys,
                                                    text, message):
        """Before, more minibatches than nsteps crashed the first PPO update
        with ZeroDivisionError (an empty minibatch), and a radius that is
        not positive ran to the end without reaching a goal. A beta of -1
        divided by zero (NaN probabilities), an il_lr that is not a number
        crashed training and a negative one ran imitation uphill, and a
        temperature that is not a number raised TypeError in the check."""
        out = tmp_path / "run"
        code = cli.main(["train", "--out", str(out), "--steps", "600",
                         "--config", self.bad_config(tmp_path, text)])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("env.variant: diag\n",
         "env.variant must be 'cardinal' or 'orientation', got 'diag'"),
        ("env.patch_size: 4\n",
         "env.patch_size must be a positive odd integer, got 4"),
        ("env.patch_size: 0\n",
         "env.patch_size must be a positive odd integer, got 0"),
        ("encoder.dim: 0\n", "encoder.dim must be a positive integer, got 0"),
        ("seed: -1\n", "seed must be a non-negative integer, got -1"),
        ("encoder.seed: -1\n",
         "encoder.seed must be a non-negative integer, got -1"),
        ("env.map_seed: 1.5\n",
         "env.map_seed must be a non-negative integer, got 1.5"),
        ("graph.d_locate: x\n",
         "graph.d_locate must be a finite number or null, got 'x'"),
        ("learner.clip: abc\n", "learner.clip must be a finite number, "
         "got 'abc'"),
        ("env.map_file: 5\n", "env.map_file must be a string, got 5"),
        ("env.map_file: true\n", "env.map_file must be a string, got True"),
        ("graph.prune_every: 50\ngraph.prune_min_count: abc\n",
         "graph.prune_min_count must be an integer, got 'abc'"),
        ("graph.prune_min_count: 2.5\n",
         "graph.prune_min_count must be an integer, got 2.5"),
        ("learner.episodic_respawn: 3\n",
         "learner.episodic_respawn must be true or false, got 3"),
        ("learner.episodic_respawn: 'no'\n",
         "learner.episodic_respawn must be true or false, got 'no'")])
    def test_unusable_setup_setting_fails_cleanly(self, tmp_path, capsys,
                                                  text, message):
        """Before, each of these ended in a traceback from the library's own
        checks (``GridEnv``, ``PatchEncoder``, NumPy's seeding, ``float()``)
        with exit 1, or, for ``env.map_seed: 1.5``, ran a truncated seed.
        An integer ``env.map_file`` was opened as a file descriptor (``true``
        as fd 1), a text ``graph.prune_min_count`` crashed at the first
        pruning and 2.5 was truncated, and any truthy
        ``learner.episodic_respawn`` turned respawning on."""
        out = tmp_path / "run"
        code = cli.main(["train", "--out", str(out), "--steps", "600",
                         "--config", self.bad_config(tmp_path, text)])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(
        key for key, (default, _) in cfgmod.SCHEMA.items()
        if default is None or type(default) is float))
    def test_float_key_reads_exponent_and_rejects_text(self, tmp_path,
                                                       capsys, key):
        """YAML reads ``2e-1`` (no dot) as a string; every float key takes
        it as 0.2, and text that is not a number exits 2."""
        cfg = cfgmod.loads(f"{key}: 2e-1\n")
        assert type(cfg[key]) is float and cfg[key] == 0.2
        assert cfgmod.loads(cfgmod.dumps(cfg)) == cfg
        code = cli.main(["explore", "--agent", "random", "--steps", "5",
                         "--config", self.bad_config(tmp_path,
                                                     f"{key}: abc\n")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {key} must be" in err and "got 'abc'" in err

    def test_minibatches_up_to_nsteps_train(self, tmp_path):
        """The bounds are inclusive: one-row minibatches train."""
        out = tmp_path / "run"
        cfg = tmp_path / "edge.yaml"
        cfg.write_text("learner.nsteps: 64\nlearner.minibatches: 64\n"
                       "reward.radius: 1.5\n")
        assert cli.main(self.train_args(out, steps=200)
                        + ["--config", str(cfg)]) == 0
        records = [json.loads(line) for line in
                   (out / "train_log.jsonl").read_text().splitlines()]
        assert sum(r.get("kind") == "update" for r in records) == 3

    def test_negative_noise_flag_fails_cleanly(self, tmp_path, capsys):
        code = cli.main(["train", "--out", str(tmp_path / "run"),
                         "--steps", "10", "--noise", "-0.5"])
        assert code == 2
        assert ("config error: env.noise must be a non-negative number"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_render_bad_config_fails_cleanly(self, tmp_path, capsys):
        code = cli.main(["render", "--config", self.bad_config(tmp_path),
                         "--out", str(tmp_path / "map.svg")])
        assert code == 2
        assert "config error: unknown config key" in capsys.readouterr().err

    def test_render_unknown_map_fails_cleanly(self, tmp_path, capsys):
        cfg = self.bad_config(tmp_path, "env.map: nonsense\n")
        code = cli.main(["render", "--config", cfg,
                         "--out", str(tmp_path / "map.svg")])
        assert code == 2
        assert "config error: unknown map" in capsys.readouterr().err
        assert not (tmp_path / "map.svg").exists()

    def test_render_missing_map_file_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        cfg = self.bad_config(tmp_path, f"env.map_file: {missing}\n")
        code = cli.main(["render", "--config", cfg,
                         "--out", str(tmp_path / "map.svg")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: env.map_file" in err and str(missing) in err
        assert not (tmp_path / "map.svg").exists()

    def test_explore_malformed_map_file_fails_cleanly(self, tmp_path,
                                                      capsys):
        path = tmp_path / "map.txt"
        path.write_text("#####\n#.x.#\n#####\n")
        cfg = self.bad_config(tmp_path, f"env.map_file: {path}\n")
        code = cli.main(["explore", "--agent", "random", "--steps", "5",
                         "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: env.map_file" in err and str(path) in err
        assert "bad map character 'x'" in err

    def test_explore_agents_share_the_spawn(self, monkeypatch):
        starts = []
        cells = []
        step = GridEnv.step

        def spy(self, state, action, rng):
            cells.append((state.x, state.y))
            return step(self, state, action, rng)

        monkeypatch.setattr(GridEnv, "step", spy)
        for agent in ("random", "straight", "rnd", "dp"):
            cells.clear()
            assert cli.main(["explore", "--agent", agent, "--steps", "5",
                             "--seed", "3"]) == 0
            starts.append(cells[0])
        assert len(starts) == 4 and len(set(starts)) == 1

    def test_orientation_variant_trains_and_evaluates(self, tmp_path):
        cfg = tmp_path / "orientation.yaml"
        cfg.write_text("env.variant: orientation\n")
        out = tmp_path / "run"
        assert cli.main(self.train_args(out, steps=1000)
                        + ["--config", str(cfg)]) == 0
        assert cli.main(["eval", "--config", str(cfg),
                         "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--graph", str(out / "graph.dgm"),
                         "--episodes", "5", "--seed", "1"]) == 0


class TestGraphEvalFrame:
    def test_eval_uses_graph_origin_frame(self, tmp_path):
        out = tmp_path / "run"
        cli.main(["train", "--out", str(out), "--steps", "1500",
                  "--seed", "0"])
        graph = GraphMemory.restore((out / "graph.dgm").read_text())
        assert graph.origin is not None
        cfg = cfgmod.make_config()
        grid = cli.build_map(cfg)
        ox, oy = int(graph.origin[0]), int(graph.origin[1])
        assert grid.is_free(ox, oy)
