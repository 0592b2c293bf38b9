"""Tests for the command-line interface."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import (
    ALLREDUCE_ALGORITHMS,
    COMM_MODES,
    INTERMEDIATE_POLICIES,
    OVERLAP_POLICIES,
    PLACEMENT_POLICIES,
    HongTuConfig,
    HongTuTrainer,
)
from repro.errors import ConfigurationError
from repro.graph import load_dataset
from repro.hardware import NODE_SPECS, TOPOLOGY_KINDS
from repro.scenario import ClusterArgs, resolve_node_specs


def _subparser(command):
    parser = build_parser()
    (commands,) = [action for action in parser._actions
                   if action.dest == "command"]
    return commands.choices[command]


class TestFlagChoices:
    """Each choice flag reads its tuple from the config, so the CLI's
    vocabulary cannot drift from what the config accepts; the help text
    renders the same brace list it always did."""

    @pytest.mark.parametrize("command, flag, choices, rendered", [
        *[(command, "--comm-mode", COMM_MODES, "{baseline,p2p,ru,hongtu}")
          for command in ("train", "serve")],
        *[(command, "--allreduce", ALLREDUCE_ALGORITHMS, "{ring,tree}")
          for command in ("train", "serve")],
        *[(command, "--topology", TOPOLOGY_KINDS, "{flat,spine,rail}")
          for command in ("train", "serve")],
        *[(command, "--placement", PLACEMENT_POLICIES,
           "{block,search,joint}") for command in ("train", "serve")],
        ("train", "--policy", INTERMEDIATE_POLICIES, "{hybrid,recompute}"),
        ("train", "--overlap", OVERLAP_POLICIES, "{barrier,pipeline}"),
    ])
    def test_choices_are_the_config_tuple(self, command, flag, choices,
                                          rendered):
        parser = _subparser(command)
        (action,) = [action for action in parser._actions
                     if flag in action.option_strings]
        assert action.choices == list(choices)
        assert f"{flag} {rendered}" in parser.format_help()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "reddit_sim"
        assert args.arch == "gcn"
        assert args.comm_mode == "hongtu"

    def test_rejects_unknown_arch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--arch", "rnn"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "imagenet"])

    def test_cluster_flags(self):
        args = build_parser().parse_args(
            ["train", "--nodes", "2", "--allreduce", "tree"]
        )
        assert args.nodes == 2
        assert args.allreduce == "tree"
        # Defaults: single node, ring all-reduce.
        defaults = build_parser().parse_args(["train"])
        assert defaults.nodes == 1
        assert defaults.allreduce == "ring"

    def test_rejects_unknown_allreduce(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--allreduce", "gossip"])

    def test_placement_flags(self):
        args = build_parser().parse_args(
            ["train", "--nodes", "2", "--placement", "joint",
             "--max-imbalance", "1"]
        )
        assert args.placement == "joint"
        assert args.max_imbalance == 1
        defaults = build_parser().parse_args(["train"])
        assert defaults.placement == "block"
        assert defaults.max_imbalance == 0

    def test_rejects_unknown_placement(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--placement", "random"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.arrival == "poisson"
        assert args.batch_policy == "immediate"
        assert args.rate == 100.0
        assert args.duration == 1.0
        assert args.batch_size == 8
        assert args.batch_timeout == 0.005
        assert args.train_epochs == 0

    def test_serve_rejects_unknown_arrival(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "flash_crowd"])

    def test_serve_rejects_unknown_batch_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--batch-policy", "oracle"])


class TestSharedClusterArgs:
    """train and serve speak the same cluster vocabulary, by construction.

    The shared flag set lives in :func:`repro.scenario.add_cluster_args`;
    these tests assert the parity *programmatically* over the
    :class:`ClusterArgs` fields so a flag added to one command but not
    the other (the old ``serve``-lacked-``--placement`` bug) cannot
    reappear silently.
    """

    def test_train_serve_flag_parity(self):
        train = build_parser().parse_args(["train"])
        serve = build_parser().parse_args(["serve"])
        for spec in fields(ClusterArgs):
            assert hasattr(train, spec.name), f"train lacks {spec.name}"
            assert hasattr(serve, spec.name), f"serve lacks {spec.name}"
            assert (getattr(train, spec.name)
                    == getattr(serve, spec.name)), spec.name

    def test_parser_defaults_match_dataclass_defaults(self):
        args = build_parser().parse_args(["train"])
        assert ClusterArgs.from_namespace(args) == ClusterArgs()

    def test_serve_exposes_placement_flags(self):
        args = build_parser().parse_args(
            ["serve", "--nodes", "2", "--placement", "search",
             "--max-imbalance", "1", "--allreduce", "tree"])
        assert args.placement == "search"
        assert args.max_imbalance == 1
        assert args.allreduce == "tree"

    def test_fault_flag_is_repeatable_on_both_commands(self):
        for command in ("train", "serve"):
            args = build_parser().parse_args(
                [command, "--nodes", "3",
                 "--fault", "straggler:node=1,nic=0.5",
                 "--fault", "death:node=2,at=4"])
            assert len(args.fault) == 2

    def test_elastic_flags(self):
        args = build_parser().parse_args(
            ["train", "--nodes", "2", "--no-elastic",
             "--rebalance-trigger", "1.5"])
        scenario = ClusterArgs.from_namespace(args)
        config = scenario.build_config()
        assert config.elastic is False
        assert config.rebalance_trigger == 1.5

    def test_scenario_config_records_its_faults(self):
        scenario = ClusterArgs(
            nodes=3, gpus=2, placement="search", max_imbalance=1,
            fault=["straggler:node=2,compute=0.5", "death:node=1,at=9"])
        config = scenario.build_config(overlap="pipeline")
        data = json.loads(json.dumps(config.to_dict(), allow_nan=False))
        assert data["faults"] == config.faults.to_dict()
        assert data["overlap"] == "pipeline" and data["max_imbalance"] == 1

    def test_namespace_round_trip_through_parser(self):
        argv = ["train", "--nodes", "3", "--gpus", "2",
                "--topology", "spine", "--oversubscription", "2",
                "--placement", "joint", "--max-imbalance", "1",
                "--node-spec", "a100:2", "--node-spec", "v100",
                "--fault", "death:node=1,at=3", "--seed", "7"]
        scenario = ClusterArgs.from_namespace(
            build_parser().parse_args(argv))
        assert scenario == ClusterArgs(
            nodes=3, gpus=2, topology="spine", oversubscription=2.0,
            placement="joint", max_imbalance=1,
            node_spec=["a100:2", "v100"],
            fault=["death:node=1,at=3"], seed=7)

    def test_node_specs_resolve_one_profile_per_node(self):
        specs = resolve_node_specs(["A100:2", " v100"], nodes=3, gpus=2)
        assert specs == (NODE_SPECS["a100"].with_num_gpus(2),) * 2 \
            + (NODE_SPECS["v100"].with_num_gpus(2),)

    def test_build_model_dims_and_seed(self):
        graph = load_dataset("products_sim", scale=0.1)
        scenario = ClusterArgs(layers=3, hidden_dim=16, seed=4)
        assert scenario.model_dims(graph) == \
            [graph.feature_dim, 16, 16, graph.num_classes]
        first = scenario.build_model(graph).state_dict()
        again = scenario.build_model(graph).state_dict()
        other = replace(scenario, seed=5).build_model(graph).state_dict()
        assert all(np.array_equal(first[name], again[name])
                   for name in first)
        assert not all(np.array_equal(first[name], other[name])
                       for name in first)


#: dataset and model flags a command takes but no value of which the
#: library accepts; each ended in a traceback (exit 1) or, for
#: --scale 0/-1 and --layers 0/-2, ran on a silently substituted value
BAD_FLAGS = [
    *[(["--scale", value], "scale must be a finite number > 0")
      for value in ("nan", "inf", "0", "-1")],
    *[(["--layers", value], "layers must be an integer >= 1")
      for value in ("0", "-2")],
    (["--hidden-dim", "0"], "hidden_dim must be an integer >= 1"),
    # numpy's "expected non-negative integer" used to exit 1
    (["--seed", "-1"], "seed must be an integer >= 0"),
]


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "reddit_sim" in out
        assert "friendster" in out

    def test_memory(self, capsys):
        assert main(["memory", "--dataset", "it2004_sim",
                     "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "stand-in" in out
        assert "it-2004" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "--dataset", "papers_sim", "--scale", "0.1",
                     "--chunks", "4"]) == 0
        out = capsys.readouterr().out
        assert "V_ori" in out
        assert "eliminated" in out

    def test_train_short_run(self, capsys):
        assert main(["train", "--dataset", "products_sim", "--scale", "0.08",
                     "--epochs", "2", "--chunks", "2",
                     "--hidden-dim", "16"]) == 0
        out = capsys.readouterr().out
        assert "epoch   2" in out
        assert "val_accuracy" in out

    def test_train_comm_modes(self, capsys):
        assert main(["train", "--dataset", "products_sim", "--scale", "0.08",
                     "--epochs", "1", "--comm-mode", "baseline",
                     "--hidden-dim", "8"]) == 0
        assert "epoch time breakdown" in capsys.readouterr().out

    def test_train_recompute_policy(self, capsys):
        assert main(["train", "--dataset", "products_sim", "--scale", "0.08",
                     "--epochs", "1", "--policy", "recompute",
                     "--hidden-dim", "8"]) == 0
        capsys.readouterr()

    def test_train_ggnn(self, capsys):
        assert main(["train", "--dataset", "products_sim", "--scale", "0.08",
                     "--epochs", "1", "--arch", "ggnn",
                     "--hidden-dim", "8"]) == 0
        capsys.readouterr()

    def test_train_multi_node(self, capsys):
        assert main(["train", "--dataset", "products_sim", "--scale", "0.08",
                     "--epochs", "1", "--nodes", "2", "--gpus", "2",
                     "--overlap", "pipeline", "--hidden-dim", "8"]) == 0
        out = capsys.readouterr().out
        assert "2 node(s) x 2 GPUs" in out
        assert "per-node busy seconds" in out
        assert "node1" in out

    def test_serve_reports_percentiles_and_goodput(self, capsys):
        assert main(["serve", "--dataset", "products_sim", "--scale", "0.08",
                     "--rate", "50", "--duration", "0.3",
                     "--batch-policy", "deadline", "--chunks", "2",
                     "--hidden-dim", "8"]) == 0
        out = capsys.readouterr().out
        assert "p50 latency" in out
        assert "p95 latency" in out
        assert "p99 latency" in out
        assert "goodput" in out
        assert "cache hit rate" in out

    def test_serve_is_deterministic_under_seed(self, capsys):
        argv = ["serve", "--dataset", "products_sim", "--scale", "0.08",
                "--rate", "50", "--duration", "0.3", "--arrival", "bursty",
                "--batch-policy", "size", "--batch-size", "4",
                "--chunks", "2", "--hidden-dim", "8", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_serve_with_warm_cache(self, capsys):
        assert main(["serve", "--dataset", "products_sim", "--scale", "0.08",
                     "--rate", "30", "--duration", "0.2",
                     "--train-epochs", "1", "--chunks", "2",
                     "--hidden-dim", "8"]) == 0
        out = capsys.readouterr().out
        assert "warm cache pair(s)" in out
        assert "0 warm cache pair(s)" not in out

    def test_serve_topology_requires_nodes(self, capsys):
        assert main(["serve", "--topology", "rail"]) == 2
        assert "needs --nodes > 1" in capsys.readouterr().err

    def test_oversubscription_requires_spine(self, capsys):
        """--oversubscription only acts on a spine core; off-spine it
        used to be silently ignored (flat-core numbers printed)."""
        assert ClusterArgs(nodes=2, topology="rail",
                           oversubscription=4.0).usage_error() is not None
        assert ClusterArgs(nodes=2, topology="spine",
                           oversubscription=4.0).usage_error() is None
        assert main(["train", "--nodes", "2", "--topology", "rail",
                     "--oversubscription", "4"]) == 2
        assert "needs --topology spine" in capsys.readouterr().err

    def test_fault_requires_nodes(self, capsys):
        assert main(["train", "--fault", "death:node=0,at=1"]) == 2
        assert "needs --nodes > 1" in capsys.readouterr().err

    def test_bad_fault_spec_is_usage_error(self, capsys):
        assert main(["train", "--nodes", "2", "--fault", "gremlin"]) == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_nan_fault_node_is_usage_error(self, capsys):
        """It used to end in a ``ValueError`` traceback."""
        assert main(["train", "--dataset", "products_sim", "--scale", "0.08",
                     "--nodes", "2", "--gpus", "2",
                     "--fault", "straggler:node=nan,compute=0.5"]) == 2
        assert "straggler node must be a non-negative integer" in \
            capsys.readouterr().err

    def test_train_runs_exactly_the_requested_epochs(self, capsys,
                                                     monkeypatch):
        """The breakdown tables used to come from one extra, unreported
        epoch trained after ``evaluate()``."""
        calls = []
        train_epoch = HongTuTrainer.train_epoch

        def counted(trainer):
            calls.append(trainer)
            return train_epoch(trainer)

        monkeypatch.setattr(HongTuTrainer, "train_epoch", counted)
        assert main(["train", "--dataset", "products_sim", "--scale", "0.08",
                     "--epochs", "2", "--chunks", "2",
                     "--hidden-dim", "8"]) == 0
        assert len(calls) == 2
        assert "epoch time breakdown" in capsys.readouterr().out

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_train_needs_an_epoch(self, capsys, epochs):
        assert main(["train", "--epochs", epochs]) == 2
        assert "--epochs must be >= 1" in capsys.readouterr().err

    def test_serve_rejects_negative_train_epochs(self, capsys, monkeypatch):
        """``range(-1)`` is empty: serve trained nothing and exited 0."""
        epochs = []
        monkeypatch.setattr(HongTuTrainer, "train_epoch",
                            lambda trainer: epochs.append(trainer))
        assert main(["serve", "--scale", "0.05", "--train-epochs", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--train-epochs must be >= 0, got -1" in captured.err
        assert epochs == []

    def test_analyze_reports_an_unsplittable_graph(self, capsys):
        """Any partition error of ``analyze`` is a bad scenario, not a
        traceback: here more GPUs than the stand-in has vertices."""
        graph = load_dataset("reddit_sim", scale=0.01, seed=42)
        gpus = str(graph.num_vertices + 1)
        assert main(["analyze", "--scale", "0.01", "--gpus", gpus]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"bad scenario: cannot split "
                                f"{graph.num_vertices} vertices into "
                                f"{gpus} parts\n")

    @pytest.mark.parametrize("flag", ["--gpus", "--chunks", "--row-bytes"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_analyze_needs_priceable_counts(self, capsys, flag, value):
        """--row-bytes 0 printed 0.0us and -5 negative seconds; --gpus 0
        and --chunks 0 ended in a PartitionError traceback."""
        assert main(["analyze", "--scale", "0.1", flag, value]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be >= 1, got {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("verb, flags, message", [
        pytest.param(verb, flags, message, id=f"{verb}{'='.join(flags)}")
        for verb in ("train", "serve", "analyze", "memory")
        for flags, message in BAD_FLAGS
        # analyze partitions the graph only: it has no model flags
        if verb != "analyze" or flags[0] in ("--scale", "--seed")
    ])
    def test_bad_dataset_or_model_flag_is_usage_error(self, capsys, verb,
                                                      flags, message):
        assert main([verb, "--scale", "0.1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad scenario: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_scenario_seed_must_be_a_count(self, seed):
        """The seed feeds the model's weights before any config exists,
        so the scenario checks it itself."""
        with pytest.raises(ConfigurationError, match="seed"):
            ClusterArgs(seed=seed)

    @pytest.mark.parametrize("entries, message", [
        (["h100"], "unknown profile 'h100'"),
        (["a100:two"], "must be an integer"),
        (["a100:0", "v100:2"], "must be >= 1"),
        (["a100:3"], "name 3 node(s) but --nodes=2"),
    ], ids=["unknown_name", "non_integer_count", "count_below_one",
            "total_not_nodes"])
    def test_bad_node_spec_is_usage_error(self, capsys, entries, message):
        """Each used to raise ``SystemExit``: the library call exited the
        interpreter and the CLI exited 1 instead of 2."""
        with pytest.raises(ConfigurationError, match="--node-spec") as info:
            ClusterArgs(nodes=2, node_spec=entries).build_platform()
        assert message in str(info.value)
        argv = ["train", "--nodes", "2"]
        for entry in entries:
            argv += ["--node-spec", entry]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf", "0"])
    def test_bad_learning_rate_is_usage_error(self, capsys, monkeypatch, lr):
        """NaN and inf passed the ``lr <= 0`` check: training ran to
        ``loss=nan`` and exited 0."""
        epochs = []
        monkeypatch.setattr(HongTuTrainer, "train_epoch",
                            lambda trainer: epochs.append(trainer))
        assert main(["train", "--scale", "0.05", "--lr", lr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad scenario: ")
        assert "learning rate must be a finite number > 0" in captured.err
        assert epochs == []

    def test_fault_beyond_fleet_is_usage_error(self, capsys):
        assert main(["train", "--nodes", "2",
                     "--fault", "death:node=7,at=1"]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_train_with_node_death(self, capsys):
        assert main(["train", "--dataset", "products_sim", "--scale",
                     "0.08", "--epochs", "5", "--nodes", "3", "--gpus",
                     "2", "--hidden-dim", "8", "--placement", "search",
                     "--max-imbalance", "2",
                     "--fault", "death:node=1,at=0.0002"]) == 0
        out = capsys.readouterr().out
        assert "re-balance (death trigger" in out
        assert "val_accuracy" in out

    def test_serve_with_straggler(self, capsys):
        assert main(["serve", "--dataset", "products_sim", "--scale",
                     "0.08", "--rate", "30", "--duration", "0.2",
                     "--nodes", "3", "--gpus", "2", "--chunks", "2",
                     "--hidden-dim", "8", "--train-epochs", "1",
                     "--fault", "straggler:node=1,nic=0.5"]) == 0
        out = capsys.readouterr().out
        assert "p99 latency" in out

    @pytest.mark.parametrize("flags, message", [
        (["--cache-budget", "nan"], "cache_budget_bytes must be positive"),
        (["--cache-budget", "inf"], "cache_budget_bytes must be positive"),
        (["--cache-budget", "0"], "cache_budget_bytes must be positive"),
        (["--cache-budget", "2.5"], "cache_budget_bytes must be positive"),
        (["--slo", "nan"], "slo must be > 0"),
        (["--rate", "-1"], "arrival rate must be finite and > 0"),
        (["--duration", "nan"], "duration must be finite and >= 0"),
        (["--batch-policy", "deadline", "--batch-timeout", "nan"],
         "timeout must be >= 0"),
        # the admission wave used to raise SchedulerError (exit 1)
        (["--batch-policy", "deadline", "--batch-timeout", "inf"],
         "timeout must be >= 0 and finite"),
        (["--batch-policy", "size", "--batch-size", "0"],
         "batch_size must be >= 1"),
        (["--arrival", "bursty", "--burst-size", "0"],
         "burst_size must be >= 1"),
    ], ids=["budget_nan", "budget_inf", "budget_zero", "budget_fraction",
            "slo_nan", "rate_negative", "duration_nan", "timeout_nan",
            "timeout_inf", "batch_size_zero", "burst_size_zero"])
    def test_bad_serve_flag_is_usage_error(self, capsys, monkeypatch, flags,
                                           message):
        """Each used to end in a traceback (exit 1): ``int(nan)`` /
        ``int(inf)`` raised from the budget, the rest were uncaught
        ``ConfigurationError`` / ``ServingError``. Arrivals, policy and
        engine are built — and judged — before any training epoch."""
        epochs = []
        monkeypatch.setattr(HongTuTrainer, "train_epoch",
                            lambda trainer: epochs.append(trainer))
        assert main(["serve", "--dataset", "products_sim", "--scale", "0.08",
                     "--chunks", "2", "--hidden-dim", "8",
                     "--train-epochs", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert "bad scenario" in err and message in err
        # the slo is the serve call's own argument: judged when it runs
        assert len(epochs) == (flags[0] == "--slo")

    def test_integral_cache_budget_float_is_bytes(self, capsys):
        """``--cache-budget 2e9`` is 2 000 000 000 bytes."""
        assert main(["serve", "--dataset", "products_sim", "--scale", "0.08",
                     "--rate", "30", "--duration", "0.2", "--chunks", "2",
                     "--hidden-dim", "8", "--train-epochs", "1",
                     "--cache-budget", "2e9"]) == 0
        out = capsys.readouterr().out
        assert "budget in use" in out
        assert "0 warm cache pair(s)" not in out

    def test_train_joint_placement(self, capsys):
        assert main(["train", "--dataset", "it2004_sim", "--scale", "0.08",
                     "--epochs", "1", "--nodes", "2", "--gpus", "4",
                     "--placement", "joint", "--max-imbalance", "1",
                     "--hidden-dim", "8"]) == 0
        out = capsys.readouterr().out
        assert "placement search:" in out
        assert "per-node counts" in out
        assert "joint iteration:" in out
