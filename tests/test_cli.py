"""End-to-end tests of the command-line pipeline, in-process except where
the BLAS thread count must be set before numpy loads."""

import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import unicom
from unicom import (
    EmbeddingSet,
    KMeansConfig,
    LossConfig,
    SyntheticSpec,
    TrainConfig,
    ablation,
    cli,
    load_embeddings,
    map_at_100,
    save_embeddings,
    truncate_dims,
)
from unicom.cli import main
from unicom.errors import NonFiniteLossError
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
        assert manifest["config"]["seed"] == 1

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
        assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--noise", "nan"),
    ("synth", "--noise", "inf"),
    ("cluster", "--tol", "nan"),
    ("cluster", "--tol", "inf"),
    ("train", "--lr", "nan"),
    ("train", "--lr", "inf"),
    ("train", "--wd", "nan"),
    ("train", "--wd", "inf"),
    ("train", "--margin", "nan"),
    ("train", "--margin", "inf"),
    ("train", "--scale", "nan"),
    ("train", "--scale", "inf"),
    ("gradcheck", "--tol", "nan"),
    ("gradcheck", "--fd-step", "nan"),
    ("gradcheck", "--fd-step", "inf"),
])
def test_non_finite_hyperparameter_is_usage_error(tmp_path, capsys, command, flag, value):
    data_dir = tmp_path / "d"
    main(synth_args(data_dir))
    out = tmp_path / "out"
    if command == "synth":
        argv = synth_args(out) + [flag, value]
    elif command == "gradcheck":
        argv = [command, "--trials", "1", flag, value, "--out", str(out)]
    else:
        argv = [command, "--input", str(data_dir / "data.uceb"), flag, value, "--out", str(out)]
        argv += ["--k", "6"] if command == "cluster" else []
    assert main(argv) == 2
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


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


    def test_non_finite_input_is_usage_error(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        path = data_dir / "data.uceb"
        blob = bytearray(path.read_bytes())
        blob[24:28] = struct.pack("<f", float("nan"))  # first vector coordinate
        path.write_bytes(bytes(blob))
        rc = main(["train", "--input", str(path), "--out", str(tmp_path / "t")])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_optimizer_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "t"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--input", str(tmp_path / "d.uceb"), "--optimizer", "adamw", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --optimizer adamw" in capsys.readouterr().err
        assert not out.exists()

    def test_dropout_that_kills_a_one_wide_row_is_usage_error(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        assert main(["synth", "--classes", "4", "--per-class", "4", "--dim", "1", "--out", str(data_dir)]) == 0
        rc = main([
            "train", "--input", str(data_dir / "data.uceb"), "--dropout-r3", "0.99",
            "--out", str(tmp_path / "t"),
        ])
        assert rc == 2
        assert "usage error: feature dropout r3=0.99" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_non_finite_loss_exits_one(self, tmp_path, monkeypatch, capsys):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))

        def diverged(*args, **kwargs):
            raise NonFiniteLossError("step 0 produced a non-finite loss nan")

        monkeypatch.setattr(cli, "train", diverged)
        rc = main(["train", "--input", str(data_dir / "data.uceb"), "--out", str(tmp_path / "t")])
        assert rc == 1
        assert "non-finite loss" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()


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

    @pytest.mark.parametrize("argv, message", [
        (["eval"], "--input is required for the recall metric"),
        (["eval", "--input", "{data}", "--labels", "{centroids}"], "{centroids} carries no labels"),
        (["eval", "--metric", "map100", "--queries", "{truth}"], "--queries and --gallery are required"),
        (["eval", "--metric", "map100", "--gallery", "{data}"], "--queries and --gallery are required"),
    ], ids=["recall-no-input", "unlabeled-labels", "map100-no-gallery", "map100-no-queries"])
    def test_missing_input_or_labels_is_usage_error(self, runs, tmp_path, capsys, argv, message):
        files = {"data": runs / "synth" / "data.uceb", "truth": runs / "synth" / "truth.uceb",
                 "centroids": runs / "cluster" / "centroids.uceb"}
        out = tmp_path / "e"
        assert main([part.format(**files) for part in argv] + ["--out", str(out)]) == 2
        assert f"usage error: {message.format(**files)}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_map100_on_truncated_dims(self, tmp_path, capsys):
        data_dir = self._trained(tmp_path)
        queries, gallery = data_dir / "truth.uceb", data_dir / "data.uceb"
        argv = ["eval", "--metric", "map100", "--queries", str(queries), "--gallery", str(gallery)]
        out = tmp_path / "e"
        assert main(argv + ["--dims", "8", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        expected = map_at_100(truncate_dims(load_embeddings(queries), 8), truncate_dims(load_embeddings(gallery), 8))
        assert report["map_at_100"] == expected
        assert report["dims_used"] == 8
        assert main(argv + ["--dims", "17", "--out", str(tmp_path / "x")]) == 2
        assert "d_prime must lie in [1, 16], got 17" in capsys.readouterr().err

    def test_map100_dimension_mismatch_is_not_hidden_by_truncation(self, tmp_path, capsys):
        # Truncated to --dims 8, the 8-dim queries and 16-dim gallery would fit.
        data_dir = self._trained(tmp_path)
        gallery = load_embeddings(data_dir / "truth.uceb")
        queries = tmp_path / "q.uceb"
        save_embeddings(gallery.with_vectors(gallery.vectors[:, :8]), queries)
        out = tmp_path / "e"
        rc = main(["eval", "--metric", "map100", "--queries", str(queries),
                   "--gallery", str(data_dir / "truth.uceb"), "--dims", "8", "--out", str(out)])
        assert rc == 2
        assert "usage error: query and gallery dimensions differ" in capsys.readouterr().err
        assert not out.exists()

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

    def test_malformed_k_list_is_usage_error(self, tmp_path, capsys):
        data_dir = self._trained(tmp_path)
        rc = main([
            "eval", "--input", str(data_dir / "data.uceb"), "--k", "1,,3",
            "--out", str(tmp_path / "e"),
        ])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err

    def test_non_utf8_id_is_io_error(self, tmp_path, capsys):
        data_dir = self._trained(tmp_path)
        path = data_dir / "data.uceb"
        blob = bytearray(path.read_bytes())
        blob[-1] = 0xFF  # last byte of the last id
        path.write_bytes(bytes(blob))
        rc = main(["eval", "--input", str(path), "--out", str(tmp_path / "e")])
        assert rc == 3
        assert "i/o error:" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("metric", ["recall", "map100"])
    def test_huge_label_ids_give_the_relabelled_report(self, tmp_path, capsys, metric):
        vectors = unit_rows(np.random.default_rng(2).standard_normal((6, 4))).astype(np.float32)
        reports = []
        for name, labels in (("compact", [0, 0, 1, 1, 2, 2]), ("huge", [0, 0, 7, 7, 2**40, 2**40])):
            path = tmp_path / f"{name}.uceb"
            save_embeddings(EmbeddingSet(vectors, [f"i{j}" for j in range(6)], labels), path)
            inputs = ["--input", str(path)] if metric == "recall" else [
                "--queries", str(path), "--gallery", str(path)]
            out = tmp_path / f"{name}-report"
            assert main(["eval", "--metric", metric, *inputs, "--out", str(out)]) == 0
            printed = capsys.readouterr().out
            reports.append([printed] + [(out / f).read_bytes() for f in ("report.json", "report.tsv")])
        assert reports[0] == reports[1]


class TestMismatchedInputs:
    """Inputs that do not fit together are usage errors (exit 2)."""

    @pytest.mark.parametrize("case", ["map100-dims", "label-order", "label-rows", "centroid-dims", "duplicate-id"])
    def test_inputs_that_do_not_fit_are_usage_errors(self, tmp_path, capsys, case):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        data = load_embeddings(data_dir / "data.uceb")
        other = tmp_path / "other.uceb"
        out = tmp_path / "o"
        if case == "map100-dims":
            save_embeddings(data.with_vectors(data.vectors[:, :8]), other)
            argv = ["eval", "--metric", "map100", "--queries", str(other),
                    "--gallery", str(data_dir / "truth.uceb")]
        elif case == "label-order":
            # Recall would be scored against the labels of other rows.
            order = np.random.default_rng(0).permutation(data.count)
            truth = load_embeddings(data_dir / "truth.uceb")
            save_embeddings(EmbeddingSet(truth.vectors[order], [truth.ids[i] for i in order],
                                         truth.labels[order]), other)
            argv = ["eval", "--input", str(data_dir / "data.uceb"), "--labels", str(other)]
        elif case == "label-rows":
            save_embeddings(EmbeddingSet(data.vectors[:-1], data.ids[:-1], data.labels[:-1]), other)
            argv = ["eval", "--input", str(data_dir / "data.uceb"), "--labels", str(other)]
        elif case == "centroid-dims":
            rows = unit_rows(np.random.default_rng(0).standard_normal((8, 12))).astype(np.float32)
            save_embeddings(EmbeddingSet(rows, [f"c{i}" for i in range(8)]), other)
            argv = ["train", "--input", str(data_dir / "data.uceb"), "--centroids", str(other)]
        else:
            blob = bytearray((data_dir / "data.uceb").read_bytes())
            blob[-1] = ord("8")  # the last id repeats the one before it
            assert blob.endswith(b"sample-00000058\x0f\x00sample-00000058")
            other.write_bytes(bytes(blob))
            argv = ["eval", "--input", str(other)]
        assert main(argv + ["--out", str(out)]) == 2
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()


class TestGradcheckCommand:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "g"
        rc = main(["gradcheck", "--trials", "5", "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        payload = json.loads((out / "gradcheck.json").read_text())
        assert payload["passed"] is True

    def test_injected_bug_fails_with_exit_one(self, capsys, flipped_gradient):
        rc = main(["gradcheck", "--trials", "3"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_failed_check_writes_its_report(self, tmp_path, flipped_gradient):
        # A FAIL is the check's result, not a refusal, so it is written.
        out = tmp_path / "g"
        assert main(["gradcheck", "--trials", "3", "--out", str(out)]) == 1
        assert json.loads((out / "gradcheck.json").read_text())["passed"] is False
        assert (out / "manifest.json").exists()

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

    def test_single_grid_value_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        out = tmp_path / "a"
        rc = main([
            "ablate", "--param", "r1", "--values", "0.5", "--seeds", "3",
            "--out", str(out),
        ])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()

    def test_two_seeds_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        out = tmp_path / "a"
        rc = main([
            "ablate", "--param", "r1", "--values", "0.5,1.0", "--seeds", "2",
            "--out", str(out),
        ])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_values_list_is_usage_error(self, tmp_path, capsys):
        rc = main([
            "ablate", "--param", "r1", "--values", "0.1,x", "--seeds", "3",
            "--out", str(tmp_path / "a"),
        ])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["0.5,,1.0", "0.5,1.0,"])
    def test_empty_values_entry_is_usage_error(self, tmp_path, capsys, monkeypatch, values):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        rc = main([
            "ablate", "--param", "r1", "--values", values, "--seeds", "3",
            "--out", str(tmp_path / "a"),
        ])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err

    def test_fractional_cluster_count_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "a"
        rc = main([
            "ablate", "--param", "k", "--values", "5.9,8.7", "--seeds", "3",
            "--classes", "4", "--per-class", "8", "--dim", "12", "--out", str(out),
        ])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err
        assert not (out / "ablation.tsv").exists()

    def test_bad_late_grid_value_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        out = tmp_path / "a"
        rc = main([
            "ablate", "--param", "k", "--values", "5,0", "--seeds", "3",
            "--classes", "4", "--per-class", "8", "--dim", "12", "--out", str(out),
        ])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_point_with_no_feature_coordinates_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        out = tmp_path / "a"
        rc = main([
            "ablate", "--param", "r2", "--values", "1,0.03", "--seeds", "3",
            "--classes", "4", "--per-class", "8", "--dim", "16", "--out", str(out),
        ])
        assert rc == 2
        assert "round(16 * 0.03) selects no coordinates" in capsys.readouterr().err
        assert not out.exists()


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

    def test_blas_thread_count_does_not_change_cluster_or_eval_outputs(self, tmp_path):
        # The BLAS thread count is fixed when numpy loads, so each count
        # runs the three commands in a process of its own.
        data, truth = tmp_path / "d" / "data.uceb", tmp_path / "d" / "truth.uceb"
        assert main([
            "synth", "--classes", "40", "--per-class", "30", "--dim", "64",
            "--conflict", "0.3", "--seed", "3", "--out", str(tmp_path / "d"),
        ]) == 0
        argvs = {
            "cluster": ["cluster", "--input", str(data), "--k", "48", "--seed", "3"],
            "eval": ["eval", "--input", str(data), "--labels", str(truth), "--k", "1,5", "--dims", "32"],
            "eval-map100": ["eval", "--metric", "map100", "--queries", str(truth), "--gallery", str(data)],
        }
        script = "import json, sys\nfrom unicom.cli import main\nsys.exit(max(main(a) for a in json.loads(sys.argv[1])))"
        src = str(Path(unicom.__file__).parents[1])
        for threads in ("1", "2"):
            runs = [argv + ["--out", str(tmp_path / threads / name)] for name, argv in argvs.items()]
            env = {
                **os.environ,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
            }
            subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env, check=True,
                           stdout=subprocess.DEVNULL)
        for name in argvs:
            assert read_tree(tmp_path / "2" / name) == read_tree(tmp_path / "1" / name), name

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

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{", b"{"], ids=["missing", "not-utf8", "not-json"])
    def test_unreadable_config_is_io_error(self, tmp_path, capsys, content):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_bytes(content)
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 3
        assert f"cannot read config {config}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["train", "--input", "DATA"],
        ["gradcheck", "--trials", "1"],
        ["synth"],
        ["ablate", "--param", "r1", "--values", "0.5,1.0", "--seeds", "3", "--epochs", "1"],
    ], ids=lambda c: c[0])
    def test_threads_only_on_commands_that_use_it(self, tmp_path, command):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        argv = [str(data_dir / "data.uceb") if a == "DATA" else a for a in command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "0", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_zero_threads_is_usage_error(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))
        rc = main([
            "eval", "--input", str(data_dir / "data.uceb"), "--metric", "recall",
            "--threads", "0", "--out", str(tmp_path / "e"),
        ])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()


class TestRefusedRunWritesNothing:
    """A run that stops on an error creates no --out; an --out that cannot
    be created is an I/O error found once the result is computed."""

    @pytest.mark.parametrize("argv", [
        ["cluster", "--input", "{data}", "--k", "4", "--threads", "0"],
        ["eval", "--input", "{truth}", "--k", "0"],
        ["cluster", "--input", "{data}", "--k", "61"],  # 60 rows
    ], ids=["cluster-threads-0", "eval-k-0", "cluster-k-above-rows"])
    def test_library_refusal_creates_no_out(self, runs, tmp_path, capsys, argv):
        files = {"data": runs / "synth" / "data.uceb", "truth": runs / "synth" / "truth.uceb"}
        out = tmp_path / "o"
        assert main([part.format(**files) for part in argv] + ["--out", str(out)]) == 2
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, out", [("synth", "taken"), ("cluster", "taken"), ("synth", "taken/sub")])
    def test_out_that_cannot_be_created_is_io_error(self, runs, tmp_path, capsys, command, out):
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory\n")
        out = tmp_path / out
        argv = synth_args(out) if command == "synth" else [
            "cluster", "--input", str(runs / "synth" / "data.uceb"), "--k", "4", "--out", str(out)]
        assert main(argv) == 3
        assert "i/o error:" in capsys.readouterr().err
        assert taken.read_bytes() == b"not a directory\n"


TINY_ABLATION = [
    "--classes", "4", "--per-class", "8", "--dim", "12",
    "--epochs", "2", "--batch-size", "8", "--scale", "16",
]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One run of every file-producing command, keyed by a run name."""
    root = tmp_path_factory.mktemp("runs")
    d, c, t = root / "synth", root / "cluster", root / "train"
    argvs = {
        "synth": synth_args(d, seed=2),
        "cluster": ["cluster", "--input", str(d / "data.uceb"), "--k", "7", "--seed", "2"],
        "cluster-threads": ["cluster", "--input", str(d / "data.uceb"), "--k", "7", "--threads", "2"],
        "train": [
            "train", "--input", str(c / "assigned.uceb"), "--centroids",
            str(c / "centroids.uceb"), "--epochs", "2", "--seed", "2",
        ],
        "train-label-means": ["train", "--input", str(d / "data.uceb"), "--epochs", "1", "--r1", "0.5"],
        "train-dropout": ["train", "--input", str(d / "data.uceb"), "--epochs", "1", "--dropout-r3", "0.3"],
        "eval": [
            "eval", "--input", str(t / "embeddings.uceb"), "--labels", str(d / "truth.uceb"),
            "--k", "1,5", "--dims", "8",
        ],
        "eval-map100": [
            "eval", "--metric", "map100", "--queries", str(d / "truth.uceb"),
            "--gallery", str(t / "embeddings.uceb"), "--threads", "3",
        ],
        "ablate": ["ablate", "--param", "r2", "--values", "0.5,1.0", "--seeds", "3", *TINY_ABLATION],
        "gradcheck": ["gradcheck", "--trials", "2", "--seed", "4"],
    }
    for name, argv in argvs.items():
        if name != "synth":
            argv = argv + ["--out", str(root / name)]
        assert main(argv) == 0, name
    return root


class TestManifestReplay:
    @pytest.mark.parametrize("name", [
        "synth", "cluster", "cluster-threads", "train", "train-label-means",
        "train-dropout", "eval", "eval-map100", "ablate", "gradcheck",
    ])
    def test_manifest_replays_to_the_same_bytes(self, runs, tmp_path, name):
        manifest = json.loads((runs / name / "manifest.json").read_text())
        out = tmp_path / "replay"
        rc = main([manifest["command"], "--config", str(runs / name / "manifest.json"), "--out", str(out)])
        assert rc == 0
        # The replayed manifest is the same too: it holds no output path.
        assert read_tree(out) == read_tree(runs / name)

    @pytest.mark.parametrize("name", ["cluster", "eval"])
    def test_stored_null_threads_means_the_default(self, runs, tmp_path, name):
        manifest = json.loads((runs / name / "manifest.json").read_text())
        manifest["config"]["threads"] = None
        config = tmp_path / "manifest.json"
        config.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        assert main([manifest["command"], "--config", str(config), "--out", str(out)]) == 0
        assert read_tree(out, skip=("manifest.json",)) == read_tree(runs / name, skip=("manifest.json",))
        assert json.loads((out / "manifest.json").read_text())["config"]["threads"] == 1

    @pytest.mark.parametrize("command", ["train", "eval", "synth"])
    def test_manifest_of_another_command_is_usage_error(self, runs, tmp_path, capsys, command):
        out = tmp_path / "o"
        rc = main([command, "--config", str(runs / "cluster" / "manifest.json"), "--out", str(out)])
        assert rc == 2
        assert "manifest of `cluster`" in capsys.readouterr().err
        assert not out.exists()

    def test_train_config_sidecar_is_usage_error(self, runs, tmp_path, capsys):
        # It nests the loss settings under `loss` and names the decay
        # `weight_decay`: read as flags, it would train with the defaults.
        sidecar = runs / "train" / "train_config.json"
        out = tmp_path / "o"
        rc = main(["train", "--config", str(sidecar), "--input", str(runs / "synth" / "data.uceb"), "--out", str(out)])
        assert rc == 2
        assert f"{sidecar} is neither a manifest nor a JSON object of flag values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [["--k", "3"], "k=3", 3, {"command": "cluster", "config": ["--k", "3"]}],
                             ids=["array", "string", "number", "manifest-of-an-array"])
    def test_config_that_is_no_object_of_flags_is_usage_error(self, runs, tmp_path, capsys, payload):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "o"
        rc = main(["cluster", "--config", str(config), "--input", str(runs / "synth" / "data.uceb"),
                   "--k", "3", "--out", str(out)])
        assert rc == 2
        assert f"{config} is neither a manifest nor a JSON object of flag values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["cluster", "train", "eval", "eval-map100"])
    def test_relative_manifest_replays_from_another_directory(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        argvs = {
            "cluster": ["cluster", "--input", "d/data.uceb", "--k", "7", "--seed", "2"],
            "train": [
                "train", "--input", "runs/cluster/assigned.uceb",
                "--centroids", "runs/cluster/centroids.uceb", "--epochs", "2",
            ],
            "eval": ["eval", "--input", "runs/train/embeddings.uceb", "--labels", "d/truth.uceb"],
            "eval-map100": [
                "eval", "--metric", "map100", "--queries", "d/truth.uceb",
                "--gallery", "runs/train/embeddings.uceb",
            ],
        }
        assert main(synth_args("d", seed=2)) == 0
        for run in ("cluster", "train", name):
            assert main(argvs[run] + ["--out", f"runs/{run}"]) == 0
        manifest = json.loads((tmp_path / "runs" / name / "manifest.json").read_text())
        paths = [v for k, v in manifest["config"].items() if k in cli._PATH_KEYS and v is not None]
        assert paths and not any(os.path.isabs(p) for p in paths)
        elsewhere = tmp_path / "x" / "y"
        elsewhere.mkdir(parents=True)
        monkeypatch.chdir(elsewhere)
        rc = main([manifest["command"], "--config", f"../../runs/{name}/manifest.json", "--out", "replay"])
        assert rc == 0
        skip = ("manifest.json",)
        assert read_tree(elsewhere / "replay", skip) == read_tree(tmp_path / "runs" / name, skip)

    @staticmethod
    def optimizer_manifest(data, optimizer):
        """A train manifest as written when training offered two
        optimizers, storing `optimizer` unless it is None."""
        manifest = {
            "command": "train",
            "config": {
                "batch_size": 32, "centroids": None, "command": "train", "dropout_r3": None,
                "epochs": 1, "input": data, "lr": 0.001, "margin": 0.3, "optimizer": optimizer,
                "r1": 0.5, "r2": 1.0, "scale": 64.0, "seed": 0, "wd": 0.05,
            },
            "seed": 0,
            "inputs": [data],
            "outputs": ["encoder.uceb", "prototypes.uceb", "train_config.json", "loss_curve.txt", "embeddings.uceb"],
            "version": "0.1.0",
        }
        if optimizer is None:
            del manifest["config"]["optimizer"]
        return manifest

    @pytest.mark.parametrize("optimizer", ["adamw", None])
    def test_manifest_storing_adamw_or_no_optimizer_replays_to_the_same_bytes(self, runs, tmp_path, optimizer):
        config = tmp_path / "manifest.json"
        config.write_text(json.dumps(self.optimizer_manifest(str(runs / "synth" / "data.uceb"), optimizer)))
        out = tmp_path / "replay"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert read_tree(out) == read_tree(runs / "train-label-means")

    @pytest.mark.parametrize("bare", [False, True])
    def test_config_storing_a_removed_optimizer_is_usage_error(self, runs, tmp_path, capsys, bare):
        # Replaying it under AdamW would quietly train something else.
        manifest = self.optimizer_manifest(str(runs / "synth" / "data.uceb"), "sgd-momentum")
        config = tmp_path / "manifest.json"
        config.write_text(json.dumps(manifest["config"] if bare else manifest))
        out = tmp_path / "replay"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert "removed optimizer 'sgd-momentum'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("init, code", [("random-points", 0), ("kmeanspp", 2)])
    def test_cluster_manifest_storing_an_init(self, runs, tmp_path, capsys, init, code):
        # Written when cluster also offered kmeans++: only the random start
        # it still draws replays; kmeans++ would quietly cluster another way.
        manifest = json.loads((runs / "cluster" / "manifest.json").read_text())
        manifest["config"]["init"] = init
        config = tmp_path / "manifest.json"
        config.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        assert main(["cluster", "--config", str(config), "--out", str(out)]) == code
        if code:
            assert f"removed init {init!r}" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert read_tree(out) == read_tree(runs / "cluster")

    def test_init_flag_is_gone(self, runs, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--input", str(runs / "synth" / "data.uceb"), "--k", "3",
                  "--init", "kmeanspp", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --init kmeanspp" in capsys.readouterr().err
        assert not out.exists()

    def test_config_storing_a_config_is_usage_error(self, tmp_path, capsys):
        # The named file would never be read.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classes": 3, "per_class": 4, "dim": 2, "config": "nonexistent.json"}))
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        assert "stores `config`" in capsys.readouterr().err
        assert not out.exists()

    def test_manifests_store_the_config_field_defaults(self, runs, tmp_path):
        # Runs with only the required flags; a flag stores its field's
        # default under the flag's name.
        flag = {"weight_decay": "wd", "r3": "dropout_r3"}
        inputs = ["--input", str(runs / "synth" / "data.uceb")]
        for argv, classes in (
            (["train", *inputs], (TrainConfig, LossConfig)),
            (["cluster", *inputs, "--k", "3"], (KMeansConfig,)),
        ):
            out = tmp_path / argv[0]
            assert main(argv + ["--out", str(out)]) == 0
            stored = json.loads((out / "manifest.json").read_text())["config"]
            for cls in classes:
                for f in fields(cls):
                    if f.name not in ("loss", "seed", "k"):
                        assert stored[flag.get(f.name, f.name)] == f.default, f.name

    def test_explicit_flag_overrides_a_stored_required_flag(self, runs, tmp_path):
        out = tmp_path / "replay"
        rc = main(["cluster", "--config", str(runs / "cluster" / "manifest.json"), "--k", "5", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["k"] == 5
        assert load_embeddings(out / "centroids.uceb").count == 5

    @pytest.mark.parametrize("form", [["--conf", "{}"], ["--conf={}"], ["--confi", "{}"]])
    def test_abbreviated_config_flag_applies_the_manifest(self, runs, tmp_path, form):
        # argparse reads these as --config, so the manifest must apply:
        # --centroids, --epochs 2 and --seed 2 come from it.
        manifest = str(runs / "train" / "manifest.json")
        out = tmp_path / "replay"
        rc = main([
            "train", "--input", str(runs / "cluster" / "assigned.uceb"),
            *[part.format(manifest) for part in form], "--out", str(out),
        ])
        assert rc == 0
        assert read_tree(out) == read_tree(runs / "train")

    @pytest.mark.parametrize("config", ["nonexist.json", "train/manifest.json"])
    def test_ambiguous_config_abbreviation_is_usage_error(self, runs, tmp_path, capsys, config):
        # train also has --centroids, so --c names no flag, readable file or not.
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--input", str(runs / "synth" / "data.uceb"),
                "--c", str(runs / config), "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2
        assert "ambiguous option: --c could match --centroids, --config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_config_flag_keeps_the_last(self, runs, tmp_path):
        out = tmp_path / "replay"
        rc = main([
            "train", "--config", str(runs / "cluster" / "manifest.json"),
            "--config", str(runs / "train" / "manifest.json"), "--out", str(out),
        ])
        assert rc == 0
        assert read_tree(out) == read_tree(runs / "train")


class TestOutputFiles:
    """A manifest holds the run's configuration and a report its results,
    each once."""

    @pytest.mark.parametrize("name", [
        "synth", "cluster", "cluster-threads", "train", "train-label-means",
        "train-dropout", "eval", "eval-map100", "ablate", "gradcheck",
    ])
    def test_manifest_holds_command_config_and_version(self, runs, name):
        manifest = json.loads((runs / name / "manifest.json").read_text())
        assert sorted(manifest) == ["command", "config", "version"]
        assert manifest["version"] == unicom.__version__

    @pytest.mark.parametrize("name", ["eval", "eval-map100"])
    def test_report_holds_only_results(self, runs, name):
        report = json.loads((runs / name / "report.json").read_text())
        assert sorted(report) == ["dims_used", "map_at_100", "recall_at"]

    def test_manifest_with_the_retired_keys_replays_to_the_same_bytes(self, runs, tmp_path):
        # Manifests once also stored the seed, input paths and output names.
        manifest = json.loads((runs / "train" / "manifest.json").read_text())
        manifest.update(seed=2, inputs=["../cluster/assigned.uceb"], outputs=["encoder.uceb"])
        config = tmp_path / "manifest.json"
        config.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert read_tree(out) == read_tree(runs / "train")


class TestFlagsThatDoNothing:
    @pytest.mark.parametrize("metric, flag", [
        ("recall", "--queries"), ("recall", "--gallery"),
        ("map100", "--labels"), ("map100", "--input"),
    ])
    def test_eval_flag_its_metric_does_not_read_is_usage_error(self, runs, tmp_path, capsys, metric, flag):
        data, truth = str(runs / "synth" / "data.uceb"), str(runs / "synth" / "truth.uceb")
        if metric == "recall":
            argv = ["eval", "--input", data, "--labels", truth]
        else:
            argv = ["eval", "--metric", "map100", "--queries", truth, "--gallery", data]
        out = tmp_path / "e"
        assert main(argv + [flag, truth, "--out", str(out)]) == 2
        assert f"does not read {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param", ["r1", "r2"])
    def test_ablate_class_or_feature_grid_with_dropout_is_usage_error(self, tmp_path, capsys, monkeypatch, param):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        out = tmp_path / "a"
        rc = main([
            "ablate", "--param", param, "--values", "0.5,1.0", "--seeds", "3",
            "--dropout-r3", "0.3", *TINY_ABLATION, "--out", str(out),
        ])
        assert rc == 2
        assert "dropout" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--r1", "0.2"]),
        ("train", ["--r2", "0.5"]),
        ("train", ["--r1", "0.2", "--r2", "0.5"]),
        ("ablate", ["--r2", "0.5"]),
    ])
    def test_class_or_feature_ratio_with_dropout_is_usage_error(self, runs, tmp_path, capsys, command, flags):
        # Dropout scores every class and coordinate; a stored ratio, as in
        # a replayed manifest, is not a flag given and stays allowed.
        if command == "train":
            argv = ["train", "--input", str(runs / "synth" / "data.uceb"), "--dropout-r3", "0.3"]
        else:
            argv = ["ablate", "--param", "r3", "--values", "0.1,0.3", "--seeds", "3", *TINY_ABLATION]
        out = tmp_path / "o"
        assert main(argv + flags + ["--out", str(out)]) == 2
        assert f"{flags[0]} does nothing under feature dropout" in capsys.readouterr().err
        assert not out.exists()


# Every flag setting that would change no output, with the message that
# refuses it. {data}, {truth} and {config} name input files.
IDLE_SETTINGS = [
    (["eval", "--input", "{data}", "--labels", "{truth}", "--queries", "{truth}"],
     "the recall metric does not read --queries"),
    (["eval", "--input", "{data}", "--labels", "{truth}", "--gallery", "{data}"],
     "the recall metric does not read --gallery"),
    (["eval", "--input", "{data}", "--config", "{config}"], "the recall metric does not read --queries"),
    (["eval", "--metric", "map100", "--queries", "{truth}", "--gallery", "{data}", "--input", "{data}"],
     "the map100 metric does not read --input"),
    (["eval", "--metric", "map100", "--queries", "{truth}", "--gallery", "{data}", "--labels", "{truth}"],
     "the map100 metric does not read --labels"),
    (["eval", "--metric", "map100", "--queries", "{truth}", "--gallery", "{data}", "--k", "7"],
     "the map100 metric does not read --k"),
    (["train", "--input", "{data}", "--dropout-r3", "0.3", "--r1", "0.2"],
     "--r1 does nothing under feature dropout"),
    (["train", "--input", "{data}", "--dropout-r3", "0.3", "--r2", "0.5"],
     "--r2 does nothing under feature dropout"),
    (["ablate", "--param", "r3", "--values", "0.1,0.3", "--r1", "0.2"],
     "--r1 does nothing under feature dropout"),
    (["ablate", "--param", "k", "--values", "4,6", "--dropout-r3", "0.3", "--r2", "0.5"],
     "--r2 does nothing under feature dropout"),
    (["ablate", "--param", "r1", "--values", "0.5,1.0", "--r1", "0.2"], "--r1 does nothing under an r1 grid"),
    (["ablate", "--param", "r2", "--values", "0.5,1.0", "--r2", "0.9"], "--r2 does nothing under an r2 grid"),
    (["ablate", "--param", "r1", "--values", "0.5,1.0", "--dropout-r3", "0.3"],
     "an r1 grid does nothing under feature dropout"),
    (["ablate", "--param", "k", "--values", "4,6", "--cluster-k", "5"], "the k grid replaces"),
    (["ablate", "--param", "r3", "--values", "0.1,0.3", "--dropout-r3", "0.3"], "the r3 grid replaces"),
    (["ablate", "--param", "k", "--values", "4,6", "--conflict", "0.5"], "a conflict ratio does nothing"),
    (["ablate", "--param", "r1", "--values", "0.5,1.0", "--cluster-k", "5", "--conflict", "0.5"],
     "a conflict ratio does nothing"),
    (["ablate", "--param", "r1", "--values", "0.5,1.0", "--report-dims", "12"],
     "a report dimension must lie in [1, 11], got 12"),
    (["ablate", "--param", "r2", "--values", "0.5,1.0", "--embed-dim", "8", "--report-dims", "8"],
     "a report dimension must lie in [1, 7], got 8"),
    (["train", "--input", "{data}", "--lr", "0", "--wd", "0.5"], "--wd does nothing at --lr 0"),
    (["ablate", "--param", "r1", "--values", "0.5,1.0", "--lr", "0", "--wd", "0"], "--wd does nothing at --lr 0"),
    (["cluster", "--input", "{data}", "--k", "4", "--max-iters", "1", "--tol", "0.5"],
     "--tol does nothing at --max-iters 1"),
]


class TestEveryIdleFlag:
    @pytest.mark.parametrize("argv, message", IDLE_SETTINGS)
    def test_idle_setting_is_usage_error(self, runs, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"queries": str(runs / "synth" / "truth.uceb")}))
        files = {"data": runs / "synth" / "data.uceb", "truth": runs / "synth" / "truth.uceb", "config": config}
        argv = [part.format(**files) for part in argv]
        if argv[0] == "ablate":
            argv += ["--seeds", "3", *TINY_ABLATION]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--input", "{data}", "--lr", "0"],
        ["cluster", "--input", "{data}", "--k", "4", "--max-iters", "1"],
    ])
    def test_run_without_the_idle_flag_is_accepted_and_replays(self, runs, tmp_path, argv):
        # --lr 0 is the untrained baseline; the replayed manifest stores
        # --wd or --tol, which is not a flag given.
        argv = [part.format(data=runs / "synth" / "data.uceb") for part in argv]
        out, replay = tmp_path / "o", tmp_path / "replay"
        assert main(argv + ["--out", str(out)]) == 0
        assert main([argv[0], "--config", str(out / "manifest.json"), "--out", str(replay)]) == 0
        assert read_tree(replay, skip=("manifest.json",)) == read_tree(out, skip=("manifest.json",))

    def test_eval_has_no_seed(self, runs, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--input", str(runs / "synth" / "data.uceb"), "--seed", "3", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["eval", "eval-map100"])
    def test_eval_manifest_holding_a_seed_replays_to_the_same_bytes(self, runs, tmp_path, name):
        # Manifests written while eval took --seed store it; it is ignored.
        manifest = json.loads((runs / name / "manifest.json").read_text())
        assert "seed" not in manifest["config"]
        manifest["seed"] = manifest["config"]["seed"] = 5
        config = tmp_path / "manifest.json"
        config.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 0
        assert read_tree(out) == read_tree(runs / name)


class TestAblationSeeds:
    # At noise 0.5 every seed gives its own recall.
    ARGV = ["ablate", "--param", "r2", "--values", "0.5,1.0", "--seeds", "3", "--noise", "0.5", *TINY_ABLATION]
    BASE = ablation.AblationConfig(
        synth=SyntheticSpec(true_classes=4, per_class=8, dim=12, intra_noise=0.5),
        train=TrainConfig(epochs=2, batch_size=8, loss=LossConfig(scale=16.0)),
    )

    def test_seed_zero_is_the_default_and_runs_seeds_zero_to_two(self, tmp_path):
        assert main(self.ARGV + ["--out", str(tmp_path / "default")]) == 0
        assert main(self.ARGV + ["--seed", "0", "--out", str(tmp_path / "seed0")]) == 0
        assert read_tree(tmp_path / "seed0") == read_tree(tmp_path / "default")
        rows = ablation.run_ablation("r2", [0.5, 1.0], self.BASE, seeds=3)
        assert (tmp_path / "seed0" / "ablation.tsv").read_text() == ablation.ablation_to_tsv(rows)

    def test_seeds_run_from_the_seed_flag(self, tmp_path):
        out = tmp_path / "seed1"
        assert main(self.ARGV + ["--seed", "1", "--out", str(out)]) == 0
        rows = ablation.run_ablation("r2", [0.5, 1.0], self.BASE, seeds=[1, 2, 3])
        stored = json.loads((out / "ablation.json").read_text())
        assert [row["per_seed"] for row in stored] == [row.per_seed for row in rows]


class TestOneParse:
    @pytest.mark.parametrize("command", ["synth", "cluster", "train", "eval", "ablate", "gradcheck"])
    def test_help_names_every_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        _, commands = cli.build_parser()
        flags = [flag for action in commands[command]._actions for flag in action.option_strings]
        assert "--out" in flags and "--config" in flags
        for flag in flags:
            assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text), flag

    def test_str_config_value_is_read_as_the_flag_type(self, runs, tmp_path, capsys):
        config = tmp_path / "config.json"
        data = str(runs / "synth" / "data.uceb")
        config.write_text(json.dumps({"input": data, "k": "3"}))
        out = tmp_path / "o"
        assert main(["cluster", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["k"] == 3
        assert load_embeddings(out / "centroids.uceb").count == 3

        config.write_text(json.dumps({"input": data, "k": "x"}))
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--config", str(config), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "argument --k: invalid int value: 'x'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_required_flags_are_checked_after_the_config(self, runs, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(runs / "synth" / "data.uceb")}))
        for argv, missing in (
            (["cluster", "--out", str(tmp_path / "o")], "--input, --k"),
            (["cluster", "--config", str(config), "--out", str(tmp_path / "o")], "--k"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"error: the following arguments are required: {missing}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# --config payloads that the typed flags they stand for would not pass:
# (command, payload, message). {data}, {truth} and {embedded} name input
# files; `bare` stands for the cluster manifest's `config` section alone.
REFUSED_CONFIGS = [
    ("eval", {"metric": "bogus", "queries": "{truth}", "gallery": "{embedded}"},
     "argument --metric: invalid choice: 'bogus'"),
    ("cluster", {"input": "{data}", "k": 2.5}, "argument --k: invalid int value: '2.5'"),
    ("cluster", {"input": "{data}", "k": 3, "threads": 1.5}, "argument --threads: invalid int value: '1.5'"),
    ("ablate", {"param": "r1", "values": "0.5,1.0", "transfer_eval": "false"},
     "argument --transfer-eval: ignored explicit argument 'false'"),
    ("train", {"input": "{data}", "weight_decay": 0.2}, "stores `weight_decay`, which names no flag of `train`"),
    ("train", "bare", "is a manifest of `cluster`, not `train`"),
    ("train", {"input": "{data}", "dropout_r3": 0.3, "r1": 0.5}, "--r1 does nothing under feature dropout"),
    ("train", {"input": "{data}", "lr": 0, "wd": 0.5}, "--wd does nothing at --lr 0"),
    ("cluster", {"input": "{data}", "k": 3, "help": True}, "stores `help`, which names no flag of `cluster`"),
    ("train", {"input": "{data}", "epochs": False}, "stores false for `epochs`, which takes a value"),
]


class TestStoredFlagsParseAsTyped:
    @pytest.mark.parametrize("command, payload, message", REFUSED_CONFIGS,
                             ids=["choice", "int-k", "int-threads", "store-true", "unknown-key", "bare-of-cluster",
                                  "idle-r1", "idle-wd", "help", "bool-of-a-value"])
    def test_config_the_typed_flags_would_fail_is_usage_error(self, runs, tmp_path, capsys, monkeypatch,
                                                              command, payload, message):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        files = {"data": runs / "synth" / "data.uceb", "truth": runs / "synth" / "truth.uceb",
                 "embedded": runs / "train" / "embeddings.uceb"}
        if payload == "bare":
            payload = json.loads((runs / "cluster" / "manifest.json").read_text())["config"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({k: v.format(**files) if isinstance(v, str) else v for k, v in payload.items()}))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
        if command == "ablate":
            argv += ["--seeds", "3", *TINY_ABLATION]
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
