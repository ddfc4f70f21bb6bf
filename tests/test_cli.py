"""CLI smoke tests (fast paths only)."""

import warnings

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.serialization import export_encoder
from repro.engine import CHECKPOINT_VERSION, read_checkpoint
from repro.graphs import load_dataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "cora"
        assert args.method == "e2gcl"
        assert args.trace is None

    def test_trace_subcommand_parses(self):
        args = build_parser().parse_args(["trace", "run.jsonl", "--top", "5"])
        assert args.path == "run.jsonl"
        assert args.top == 5


class TestListCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "cora" in out and "products" in out

    def test_list_methods(self, capsys):
        assert main(["list-methods"]) == 0
        out = capsys.readouterr().out
        assert "e2gcl" in out and "grace" in out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out and "Figure 4(e)" in out


class TestSelect:
    def test_select_small(self, capsys):
        code = main(["select", "--dataset", "cora", "--scale", "0.1",
                     "--ratio", "0.2", "--clusters", "5", "--samples", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected" in out
        assert "class histogram" in out


class TestTrain:
    def test_train_tiny(self, capsys, tmp_path):
        """``--save`` writes a v2 engine checkpoint that rehydrates through
        ``export_encoder``, without touching the deprecated v1 writer."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            code = main(["train", "--dataset", "cora", "--scale", "0.1",
                         "--epochs", "2", "--trials", "1",
                         "--save", str(tmp_path / "m.npz")])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        meta, _ = read_checkpoint(tmp_path / "m.npz")
        assert meta["version"] == CHECKPOINT_VERSION
        assert meta["epoch_next"] == 2
        artifact = export_encoder(tmp_path / "m.npz")
        assert artifact.kind == "gcn" and artifact.step_class == "E2GCLTrainer"
        graph = load_dataset("cora", seed=0, scale=0.1)
        assert np.isfinite(artifact.embed(graph)).all()

    def test_save_rejected_for_baselines(self, tmp_path, capsys):
        code = main(["train", "--dataset", "cora", "--scale", "0.1",
                     "--epochs", "1", "--trials", "1", "--method", "dgi",
                     "--save", str(tmp_path / "m.npz")])
        assert code == 2


class TestSampledFlags:
    def test_sampled_parses(self):
        args = build_parser().parse_args(
            ["train", "--sampled", "--batch-size", "64", "--fanouts", "10,5",
             "--local-views", "--anchors", "uniform",
             "--partition-parts", "4"])
        assert args.sampled
        assert args.batch_size == 64
        assert args.fanouts == "10,5"
        assert args.local_views
        assert args.anchors == "uniform"
        assert args.partition_parts == 4

    @pytest.mark.scale
    def test_sampled_train_runs(self, capsys):
        code = main(["train", "--dataset", "cora", "--scale", "0.1",
                     "--epochs", "2", "--trials", "1", "--sampled",
                     "--batch-size", "16", "--fanouts", "10,5",
                     "--local-views"])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_sampled_rejected_for_baselines(self, capsys):
        code = main(["train", "--dataset", "cora", "--scale", "0.1",
                     "--epochs", "1", "--trials", "1", "--method", "grace",
                     "--sampled"])
        assert code == 2
        assert "e2gcl" in capsys.readouterr().err


class TestResilienceFlags:
    def test_guard_defaults_off(self):
        args = build_parser().parse_args(["train"])
        assert args.guard == "off"
        assert args.max_retries == 3
        assert args.keep_checkpoints == 3

    def test_guard_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--guard", "explode"])

    def test_train_with_recovering_guard(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        code = main(["train", "--dataset", "cora", "--scale", "0.1",
                     "--epochs", "2", "--trials", "1", "--method", "grace",
                     "--guard", "recover", "--checkpoint", str(ckpt_dir),
                     "--checkpoint-every", "1", "--keep-checkpoints", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovering checkpoints" in out
        # Retention honored: 2 epochs saved, keep 2.
        assert len(list(ckpt_dir.glob("ckpt-e*.npz"))) == 2

    def test_resume_from_directory(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        assert main(["train", "--dataset", "cora", "--scale", "0.1",
                     "--epochs", "2", "--trials", "1", "--method", "grace",
                     "--guard", "recover", "--checkpoint", str(ckpt_dir),
                     "--checkpoint-every", "1"]) == 0
        code = main(["train", "--dataset", "cora", "--scale", "0.1",
                     "--epochs", "4", "--trials", "1", "--method", "grace",
                     "--resume", str(ckpt_dir)])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_resume_from_empty_directory_fails_clearly(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = main(["train", "--dataset", "cora", "--scale", "0.1",
                     "--epochs", "2", "--trials", "1",
                     "--resume", str(empty)])
        assert code == 2
        assert "no valid checkpoint" in capsys.readouterr().err

    def test_resume_from_missing_path_fails_clearly(self, tmp_path, capsys):
        code = main(["train", "--dataset", "cora", "--scale", "0.1",
                     "--epochs", "2", "--trials", "1",
                     "--resume", str(tmp_path / "does-not-exist")])
        assert code == 2
        assert "no valid checkpoint" in capsys.readouterr().err
