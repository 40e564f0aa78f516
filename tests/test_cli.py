"""End-to-end tests of the command-line pipeline (in-process)."""

import json

import numpy as np

from unicom import EmbeddingSet, load_embeddings, save_embeddings
from unicom.cli import main
from unicom.util import unit_rows


def synth_args(out, seed=1, conflict="0.3"):
    return [
        "synth", "--classes", "6", "--per-class", "10", "--dim", "16",
        "--noise", "0.1", "--conflict", conflict, "--seed", str(seed),
        "--out", str(out),
    ]


def read_tree(root, skip=()):
    return {
        p.name: p.read_bytes()
        for p in sorted(root.iterdir())
        if p.is_file() and p.name not in skip
    }


class TestSynthCommand:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert main(synth_args(out)) == 0
        data = load_embeddings(out / "data.uceb")
        truth = load_embeddings(out / "truth.uceb")
        assert data.count == 60 and data.dim == 16
        assert np.unique(data.labels).size == 6 + 2  # round(6 * 0.3) = 2 conflicts
        assert np.unique(truth.labels).size == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["classes"] == 6
        assert manifest["seed"] == 1

    def test_identical_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a)) == 0
        assert main(synth_args(b)) == 0
        assert read_tree(a) == read_tree(b)

    def test_out_of_range_conflict_is_usage_error(self, tmp_path):
        assert main(synth_args(tmp_path / "x", conflict="1.5")) == 2


class TestClusterCommand:
    def test_cluster_outputs(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        out = tmp_path / "c"
        rc = main([
            "cluster", "--input", str(data_dir / "data.uceb"), "--k", "6",
            "--seed", "2", "--out", str(out),
        ])
        assert rc == 0
        centroids = load_embeddings(out / "centroids.uceb")
        assert centroids.count == 6 and centroids.dim == 16
        assigned = load_embeddings(out / "assigned.uceb")
        assert assigned.labels is not None and assigned.labels.max() < 6
        trace = [float(v) for v in (out / "objective_trace.txt").read_text().split()]
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert "objective" in capsys.readouterr().out

    def test_zero_k_is_usage_error(self, tmp_path):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        rc = main([
            "cluster", "--input", str(data_dir / "data.uceb"), "--k", "0",
            "--out", str(tmp_path / "c"),
        ])
        assert rc == 2

    def test_missing_input_is_io_error(self, tmp_path):
        rc = main([
            "cluster", "--input", str(tmp_path / "nope.uceb"), "--k", "3",
            "--out", str(tmp_path / "c"),
        ])
        assert rc == 3


class TestTrainCommand:
    def test_checkpoint_and_curve(self, tmp_path):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        out = tmp_path / "t"
        rc = main([
            "train", "--input", str(data_dir / "data.uceb"), "--epochs", "2",
            "--batch-size", "16", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        for name in ("encoder.uceb", "prototypes.uceb", "train_config.json",
                     "loss_curve.txt", "embeddings.uceb", "manifest.json"):
            assert (out / name).exists()
        curve = (out / "loss_curve.txt").read_text().splitlines()
        assert len(curve) == 2 * ((60 + 15) // 16)  # 2 epochs of ceil(60/16) steps
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["r1"] == 0.1
        assert manifest["config"]["margin"] == 0.3
        assert manifest["config"]["scale"] == 64.0
        assert manifest["config"]["lr"] == 0.001
        assert manifest["config"]["wd"] == 0.05

    def test_invalid_r1_is_usage_error(self, tmp_path):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        rc = main([
            "train", "--input", str(data_dir / "data.uceb"), "--r1", "0",
            "--out", str(tmp_path / "t"),
        ])
        assert rc == 2


class TestEvalCommand:
    def _trained(self, tmp_path):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        return data_dir

    def test_recall_with_truncation_and_label_override(self, tmp_path, capsys):
        data_dir = self._trained(tmp_path)
        out = tmp_path / "e"
        rc = main([
            "eval", "--input", str(data_dir / "data.uceb"),
            "--labels", str(data_dir / "truth.uceb"),
            "--metric", "recall", "--k", "1,5", "--dims", "8",
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["recall_at"]) == {"1", "5"}
        assert report["recall_at"]["5"] >= report["recall_at"]["1"]
        assert report["dims_used"] == 8
        assert "recall@1" in (out / "report.tsv").read_text()

    def test_map100_on_split_files(self, tmp_path):
        rng = np.random.default_rng(0)
        queries = EmbeddingSet(
            unit_rows(rng.standard_normal((10, 8))).astype(np.float32),
            [f"q{i}" for i in range(10)], np.arange(10) % 2,
        )
        gallery = EmbeddingSet(
            unit_rows(rng.standard_normal((30, 8))).astype(np.float32),
            [f"g{i}" for i in range(30)], np.arange(30) % 2,
        )
        save_embeddings(queries, tmp_path / "q.uceb")
        save_embeddings(gallery, tmp_path / "g.uceb")
        out = tmp_path / "e"
        rc = main([
            "eval", "--metric", "map100", "--queries", str(tmp_path / "q.uceb"),
            "--gallery", str(tmp_path / "g.uceb"), "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["map_at_100"] <= 1.0

    def test_missing_labels_is_usage_error(self, tmp_path):
        rng = np.random.default_rng(1)
        s = EmbeddingSet(
            unit_rows(rng.standard_normal((4, 4))).astype(np.float32), list("abcd")
        )
        save_embeddings(s, tmp_path / "u.uceb")
        rc = main([
            "eval", "--input", str(tmp_path / "u.uceb"), "--metric", "recall",
            "--out", str(tmp_path / "e"),
        ])
        assert rc == 2

    def test_singleton_class_is_usage_error(self, tmp_path):
        s = EmbeddingSet(np.eye(3, dtype=np.float32), list("abc"), [0, 0, 1])
        save_embeddings(s, tmp_path / "s.uceb")
        rc = main([
            "eval", "--input", str(tmp_path / "s.uceb"), "--metric", "recall",
            "--out", str(tmp_path / "e"),
        ])
        assert rc == 2


class TestGradcheckCommand:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "g"
        rc = main(["gradcheck", "--trials", "5", "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        payload = json.loads((out / "gradcheck.json").read_text())
        assert payload["passed"] is True

    def test_injected_bug_fails_with_exit_one(self, capsys):
        rc = main(["gradcheck", "--trials", "3", "--inject-bug"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_zero_trials_is_usage_error(self):
        assert main(["gradcheck", "--trials", "0"]) == 2


class TestAblateCommand:
    def test_tiny_grid_writes_tables(self, tmp_path):
        out = tmp_path / "a"
        rc = main([
            "ablate", "--param", "r1", "--values", "0.5,1.0", "--seeds", "3",
            "--classes", "4", "--per-class", "8", "--dim", "12",
            "--epochs", "2", "--batch-size", "8", "--scale", "16",
            "--out", str(out),
        ])
        assert rc == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert {r["value"] for r in rows} == {0.5, 1.0}
        assert all(len(r["per_seed"]) == 3 for r in rows)
        assert (out / "ablation.tsv").read_text().count("\n") == len(rows) + 1

    def test_single_grid_value_is_usage_error(self, tmp_path):
        rc = main([
            "ablate", "--param", "r1", "--values", "0.5", "--seeds", "3",
            "--out", str(tmp_path / "a"),
        ])
        assert rc == 2


class TestDeterminismAndConfig:
    def test_pipeline_rerun_is_byte_identical(self, tmp_path):
        for name in ("x", "y"):
            root = tmp_path / name
            main(synth_args(root / "d", seed=7))
            main([
                "cluster", "--input", str(root / "d" / "data.uceb"), "--k", "6",
                "--seed", "7", "--out", str(root / "c"),
            ])
            main([
                "train", "--input", str(root / "c" / "assigned.uceb"),
                "--centroids", str(root / "c" / "centroids.uceb"),
                "--epochs", "2", "--seed", "7", "--out", str(root / "t"),
            ])
        for sub in ("d", "c", "t"):
            # manifests embed the differing absolute input paths; every data
            # artifact must be byte-identical
            assert read_tree(tmp_path / "x" / sub, skip=("manifest.json",)) == read_tree(
                tmp_path / "y" / sub, skip=("manifest.json",)
            )

    def test_threads_do_not_change_metrics(self, tmp_path):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        reports = {}
        for threads in ("1", "4"):
            out = tmp_path / f"e{threads}"
            rc = main([
                "eval", "--input", str(data_dir / "data.uceb"),
                "--metric", "recall", "--k", "1,3", "--threads", threads,
                "--out", str(out),
            ])
            assert rc == 0
            reports[threads] = json.loads((out / "report.json").read_text())
        for k in ("1", "3"):
            assert abs(reports["1"]["recall_at"][k] - reports["4"]["recall_at"][k]) <= 1e-9

    def test_manifest_is_reusable_as_config(self, tmp_path):
        a = tmp_path / "a"
        main(synth_args(a, seed=9))
        b = tmp_path / "b"
        rc = main([
            "synth", "--config", str(a / "manifest.json"), "--out", str(b),
        ])
        assert rc == 0
        assert (a / "data.uceb").read_bytes() == (b / "data.uceb").read_bytes()
        # explicit flags override the config file
        c = tmp_path / "c"
        rc = main([
            "synth", "--config", str(a / "manifest.json"), "--seed", "10",
            "--out", str(c),
        ])
        assert rc == 0
        assert (a / "data.uceb").read_bytes() != (c / "data.uceb").read_bytes()

    def test_unreadable_config_is_io_error(self, tmp_path):
        rc = main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_threads_env_var_fallback(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        monkeypatch.setenv("UNICOM_THREADS", "3")
        out = tmp_path / "e"
        rc = main([
            "eval", "--input", str(data_dir / "data.uceb"), "--metric", "recall",
            "--out", str(out),
        ])
        assert rc == 0
        monkeypatch.setenv("UNICOM_THREADS", "0")
        rc = main([
            "eval", "--input", str(data_dir / "data.uceb"), "--metric", "recall",
            "--out", str(tmp_path / "e2"),
        ])
        assert rc != 0
