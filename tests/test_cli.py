"""End-to-end tests of the command-line pipeline (in-process)."""

import json
import struct

import numpy as np
import pytest

from unicom import EmbeddingSet, ablation, cli, load_embeddings, save_embeddings
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
        assert not (tmp_path / "t" / "prototypes.uceb").exists()

    def test_non_finite_loss_exits_one(self, tmp_path, monkeypatch, capsys):
        data_dir = tmp_path / "d"
        main(synth_args(data_dir))

        def diverged(*args, **kwargs):
            raise NonFiniteLossError("step 0 produced a non-finite loss nan")

        monkeypatch.setattr(cli, "train", diverged)
        rc = main(["train", "--input", str(data_dir / "data.uceb"), "--out", str(tmp_path / "t")])
        assert rc == 1
        assert "non-finite loss" in capsys.readouterr().err


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
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_two_seeds_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        out = tmp_path / "a"
        rc = main([
            "ablate", "--param", "r1", "--values", "0.5,1.0", "--seeds", "2",
            "--out", str(out),
        ])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

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
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


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
        "cluster-random": [
            "cluster", "--input", str(d / "data.uceb"), "--k", "7",
            "--init", "random-points", "--threads", "2",
        ],
        "train": [
            "train", "--input", str(c / "assigned.uceb"), "--centroids",
            str(c / "centroids.uceb"), "--epochs", "2", "--seed", "2",
        ],
        "train-label-means": ["train", "--input", str(d / "data.uceb"), "--epochs", "1", "--r1", "0.5"],
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
        "synth", "cluster", "cluster-random", "train", "train-label-means",
        "eval", "eval-map100", "ablate", "gradcheck",
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
        assert not any(p.startswith("/") for p in manifest["inputs"])
        elsewhere = tmp_path / "x" / "y"
        elsewhere.mkdir(parents=True)
        monkeypatch.chdir(elsewhere)
        rc = main([manifest["command"], "--config", f"../../runs/{name}/manifest.json", "--out", "replay"])
        assert rc == 0
        skip = ("manifest.json",)
        assert read_tree(elsewhere / "replay", skip) == read_tree(tmp_path / "runs" / name, skip)

    def test_explicit_flag_overrides_a_stored_required_flag(self, runs, tmp_path):
        out = tmp_path / "replay"
        rc = main(["cluster", "--config", str(runs / "cluster" / "manifest.json"), "--k", "5", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["k"] == 5
        assert load_embeddings(out / "centroids.uceb").count == 5
