import csv
import dataclasses
import json
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest

from oomscene import (
    DomainShift,
    fit_pipeline,
    generate,
    load_bundle,
    planted_spec,
    save_bundle,
    to_text,
    write_manifest,
)
from oomscene.bundle import (
    BUNDLE_VERSION,
    DEFAULT_FOLDS,
    DEFAULT_PCA_DIM,
    DEFAULT_TOPIC_COUNT,
    PROFILES,
    PipelineConfig,
    _BUNDLE_TYPES,
    config_file_pairs,
    config_from_pairs,
    read_descriptor_file,
)
from oomscene import pipeline
from oomscene import cli
from oomscene import synth
from oomscene.cli import main
from oomscene.ingest import DatasetManifest, parse_manifest

from helpers import container


def descriptor_file(**fields):
    """A descriptor file of a zero 3 x 2 matrix whose DescriptorFile node
    holds ``fields`` beside the matrix."""
    header = {"descriptor": {"DescriptorFile": {"matrix": {"array": 0}, **fields}},
              "arrays": [{"dtype": "<f8", "shape": [3, 2]}]}
    return container(b"OOMSDESC", header, bytes(48))


GOOD_DESC = {"image_ids": ["a", "b", "c"], "layout": [[1, 1]], "selection_sha256": "0" * 64}


SMALL = ["--set", "object_count=8", "--set", "topic_count=2",
         "--set", "sgd_lambdas=1e-4", "--set", "sgd_eta0s=0.5",
         "--set", "sgd_epochs=8", "--set", "seed=3"]


SYNTH_SPEC = planted_spec(3, 12, 2, 12, shift=DomainShift(0.1, 1.0, 0.0), seed=3)


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    source, target = generate(SYNTH_SPEC)
    write_manifest(source, root / "source.txt")
    write_manifest(target, root / "target.txt")
    return root


@pytest.fixture(scope="module")
def trained_bundle(synth_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "model.bin"
    rc = main(["train", "--train", str(synth_files / "source.txt"),
               "--out", str(out)] + SMALL)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def soft_files(synth_files):
    """(source path, target path): soft manifests of the synth files' spec."""
    paths = synth_files / "soft_source.txt", synth_files / "soft_target.txt"
    for manifest, path in zip(generate(SYNTH_SPEC, patches=4), paths):
        write_manifest(manifest, path)
    return paths


@pytest.fixture(scope="module", params=["hard", "soft"])
def mode_files(request, synth_files, soft_files):
    """(source path, target path, mode config args) in each detection mode."""
    if request.param == "hard":
        return synth_files / "source.txt", synth_files / "target.txt", []
    return (*soft_files, ["--set", "mode=soft", "--set", "pca_dim=10",
                          "--set", "codebook_size=4"])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def train_log(out):
    """The lines `train` printed, each stage's time masked as `<t>`."""
    return [re.sub(r"\d+\.\d{3}s", "<t>s", line) for line in out.splitlines()]


class TestConfig:
    def test_paper_profile_defaults(self):
        cfg = PipelineConfig()
        assert cfg.object_count == PROFILES["snapstore"]["hard"] == 140
        assert PROFILES["snapstore"]["soft"] == 300
        assert PROFILES["mit67"] == {"hard": 200, "soft": 500}
        assert cfg.topic_count == DEFAULT_TOPIC_COUNT == 5
        assert cfg.pca_dim == DEFAULT_PCA_DIM == 500
        assert cfg.folds == DEFAULT_FOLDS == 5
        assert cfg.pyramid == ((1, 1), (2, 2), (3, 1))
        assert cfg.sgd_lambdas == (1e-5, 1e-4, 1e-3)
        assert cfg.sgd_eta0s == (0.1, 1.0)

    def test_profile_switch(self):
        cfg = PipelineConfig(mode="soft").with_profile("mit67")
        assert cfg.object_count == 500

    def test_pairs_and_file(self, tmp_path):
        cfg = config_from_pairs(["delta_theta=0.1", "pyramid=1x1,2x2",
                                 "sgd_lambdas=0.1,0.2"])
        assert cfg.delta_theta == 0.1
        assert cfg.pyramid == ((1, 1), (2, 2))
        assert cfg.sgd_lambdas == (0.1, 0.2)
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nobject_count=9\nmode=soft\n")
        from oomscene.bundle import config_file_pairs
        cfg2 = config_from_pairs(config_file_pairs(path))
        assert cfg2.object_count == 9 and cfg2.mode == "soft"

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            config_from_pairs(["nonsense=1"])

    @pytest.mark.parametrize("field, value, message", [
        ("sgd_lambdas", (float("inf"),), "lam"),
        ("sgd_lambdas", (0.0,), "lam"),
        ("sgd_eta0s", (float("nan"),), "eta0"),
        ("sgd_lambdas", (), "sgd_lambdas"),
        ("sgd_eta0s", (), "sgd_eta0s"),
        ("sgd_epochs", 0, "epochs"),
        ("folds", 1, "folds"),
        ("prior", "flat", "prior"),
        ("fallback", "zero", "fallback"),
        ("phi_aggregation", "sum", "phi_aggregation"),
        ("object_count", 0, "object_count"),
        ("pca_dim", 0, "pca_dim"),
        ("codebook_size", 0, "codebook_size"),
        ("topic_count", 0, "topic_count"),
        ("seed", -1, "seed"),
        ("delta_theta", 0.0, "delta_theta"),
        ("pyramid", ((0, 1),), "pyramid level"),
        ("sgd_lambdas", (1e-4,) * 33, "config keys 'sgd_lambdas', 'sgd_eta0s': the grid "
                                      "has 66 entries, more than 64"),
    ])
    def test_bad_field_refused_when_built(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**{field: value})

    def test_one_entry_grid_needs_no_folds(self, synth_files, tmp_path):
        cfg = PipelineConfig(sgd_lambdas=(1e-4,), sgd_eta0s=(0.5,), folds=1)
        assert len(cfg.sgd_grid()) == 1
        # a file and --set pairs make one config, checked as a whole
        path = tmp_path / "cfg.txt"
        path.write_text("folds=1\nsgd_lambdas=1e-4,1e-3\n")
        rc = main(["build-oom", "--train", str(synth_files / "source.txt"),
                   "--out", str(tmp_path / "oom.bin"), "--config", str(path),
                   "--set", "sgd_lambdas=1e-4", "--set", "sgd_eta0s=0.5"])
        assert rc == 0
        assert load_bundle(tmp_path / "oom.bin").config.folds == 1

    @pytest.mark.parametrize("command, pair", [("build-oom", "sgd_lambdas=inf"),
                                               ("train", "seed=-1")])
    def test_bad_config_writes_no_bundle(self, command, pair, synth_files, tmp_path,
                                         capsys):
        out = tmp_path / "m.bundle"
        rc = main([command, "--train", str(synth_files / "source.txt"),
                   "--out", str(out), "--set", pair])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_non_utf8_config_file_names_file_and_line(self, synth_files, tmp_path,
                                                     capsys):
        # a bare UnicodeDecodeError named neither the file nor the line
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"# tuned\nseed=3\r\nfolds=\xff3\n")
        out = tmp_path / "m.bundle"
        rc = main(["train", "--train", str(synth_files / "source.txt"),
                   "--out", str(out), "--config", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: config file {path}: line 3: byte 22 "
                                           f"is not UTF-8 (invalid start byte)\n")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_profile_with_explicit_object_count_refused(self, source, synth_files,
                                                        tmp_path, capsys):
        # the profile used to override the explicit count without a word
        path = tmp_path / "cfg.txt"
        path.write_text("object_count=12\n")
        given = (["--set", "object_count=12"] if source == "set"
                 else ["--config", str(path)])
        out = tmp_path / "m.bundle"
        rc = main(["train", "--train", str(synth_files / "source.txt"),
                   "--out", str(out), "--profile", "mit67"] + given)
        assert rc == 1
        captured = capsys.readouterr()
        assert "--profile" in captured.err and "object_count" in captured.err
        assert captured.out == "" and not out.exists()

    def test_every_field_round_trips_through_a_config_file(self, tmp_path):
        # each value written as its key's type reads it: lists comma-separated,
        # pyramid levels as RxC
        cfg = PipelineConfig(mode="soft", theta_min=0.25, theta_max=0.75,
                             delta_theta=0.125, prior="empirical", fallback="last-valid",
                             object_count=7, phi_aggregation="mean",
                             pyramid=((1, 1), (2, 3)), pca_dim=20, codebook_size=8,
                             topic_count=2, sgd_lambdas=(0.25, 1e-6), sgd_eta0s=(0.5,),
                             sgd_epochs=3, folds=4, seed=11)
        default = PipelineConfig()

        def text(value):
            if isinstance(value, tuple):
                return ",".join("x".join(map(str, v)) if isinstance(v, tuple) else repr(v)
                                for v in value)
            return str(value)

        lines = []
        for field in dataclasses.fields(cfg):
            value = getattr(cfg, field.name)
            assert value != getattr(default, field.name), field.name
            lines.append(f"{field.name} = {text(value)}\n")
        path = tmp_path / "all.cfg"
        path.write_text("".join(lines))
        assert config_from_pairs(config_file_pairs(path)) == cfg

    @pytest.mark.parametrize("pair, key", [("object_count=abc", "object_count"),
                                           ("pyramid=1x1,2y2", "pyramid"),
                                           ("pyramid=1x1x1", "pyramid"),
                                           ("pyramid=2", "pyramid"),
                                           ("sgd_lambdas=0.1,x", "sgd_lambdas"),
                                           ("sgd_eta0s=1,", "sgd_eta0s")])
    def test_bad_value_names_key(self, pair, key, synth_files, tmp_path, capsys):
        with pytest.raises(ValueError, match=key):
            config_from_pairs([pair])
        rc = main(["train", "--train", str(synth_files / "source.txt"),
                   "--out", str(tmp_path / "m.bundle"), "--set", pair])
        assert rc == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("pair, field", [("sgd_lambdas=inf", "lam"),
                                             ("sgd_eta0s=1,inf", "eta0"),
                                             ("sgd_lambdas=nan", "lam")])
    def test_non_finite_sgd_value_refused(self, pair, field, synth_files, tmp_path,
                                          capsys):
        # it used to train NaN weights and predict the first class everywhere
        out = tmp_path / "m.bundle"
        rc = main(["train", "--train", str(synth_files / "source.txt"),
                   "--out", str(out), *SMALL, "--set", pair])
        assert rc == 1
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1e-9",
                                       "99999999999999999999", "abc", "1,", "1x1x1",
                                       pytest.param(",".join(["0.5"] * 65),
                                                    id="65-item-list")])
    @pytest.mark.parametrize("key", list(_BUNDLE_TYPES["PipelineConfig"][1]))
    def test_bad_value_trains_or_is_refused_naming_its_key(self, key, value, synth_files,
                                                           tmp_path, capsys):
        # every key the config declares, so a key added later is covered:
        # each value trains, or is refused on one line naming the key, and
        # none escapes main or runs on (a huge folds, a huge sgd_epochs)
        start = time.perf_counter()
        rc = main(["train", "--train", str(synth_files / "source.txt"),
                   "--out", str(tmp_path / "m.bundle"), *SMALL,
                   "--set", "sgd_lambdas=1e-4,1e-3", "--set", f"{key}={value}"])
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        if rc == 0:
            assert err == ""
        else:
            assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
            assert key in err

    def test_huge_folds_train_as_the_largest_class_size(self, synth_files, tmp_path):
        # every count at or above the largest class deals the same folds
        source, target = synth_files / "source.txt", synth_files / "target.txt"
        largest = int(np.bincount(parse_manifest(source).labels).max())
        bundles, predictions = [], []
        for folds in (str(largest), "99999999999999999999"):
            out = tmp_path / f"folds{folds}.bundle"
            assert main(["train", "--train", str(source), "--out", str(out), *SMALL,
                         "--set", "sgd_lambdas=1e-4,1e-3", "--set", f"folds={folds}"]) == 0
            assert main(["predict", "--bundle", str(out), "--manifest", str(target),
                         "--out", str(tmp_path / f"{folds}.csv")]) == 0
            bundles.append(load_bundle(out).ensemble)
            predictions.append((tmp_path / f"{folds}.csv").read_bytes())
        a, b = bundles
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.biases.tobytes() == b.biases.tobytes()
        assert predictions[0] == predictions[1]


class TestSynthCommand:
    def test_writes_manifests_and_sidecars(self, tmp_path):
        out = tmp_path / "data"
        rc = main(["synth", "--classes", "3", "--objects", "12", "--topics", "2",
                   "--images-per-class", "6", "--offset", "0.1", "--seed", "1",
                   "--out-dir", str(out)])
        assert rc == 0
        assert (out / "source.txt").exists()
        assert (out / "target.txt").exists()
        rows = read_csv(out / "source_topics.csv")
        assert rows[0] == ["image_id", "hidden_topic"]
        assert len(rows) == 1 + 18

    def test_patches_draw_the_library_soft_manifests(self, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--classes", "3", "--objects", "12", "--topics", "2",
                     "--images-per-class", "6", "--offset", "0.1", "--seed", "1",
                     "--patches", "3", "--out-dir", str(out)]) == 0
        spec = planted_spec(3, 12, 2, 6, shift=DomainShift(score_offset=0.1), seed=1)
        for manifest, name in zip(generate(spec, patches=3), ("source", "target")):
            assert manifest.mode == "soft"
            assert (out / f"{name}.txt").read_text() == to_text(manifest)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("patches", ["0", "3"])
    @pytest.mark.parametrize("shift, named", [
        (["--offset", "nan"], ["score_offset"]),
        (["--scale", "inf"], ["score_scale"]),
        (["--offset", "1e308", "--scale", "1e308"], ["score_scale", "score_offset"]),
    ], ids=["nan-offset", "inf-scale", "overflow"])
    def test_non_finite_or_overflowing_shift_refused_naming_its_field(
            self, tmp_path, capsys, patches, shift, named):
        rc = main(["synth", "--classes", "2", "--objects", "6", "--topics", "2",
                   "--images-per-class", "3", "--patches", patches, *shift,
                   "--out-dir", str(tmp_path / "data")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in named)
        assert not (tmp_path / "data" / "source.txt").exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--patches", "100000000000000", "patches"),
        ("--objects", "100000000000000", "n_objects"),
        ("--images-per-class", "100000000000000", "images_per_class"),
        ("--topics", "100000000000", "n_topics"),
    ], ids=["patches", "objects", "images-per-class", "topics"])
    def test_draw_too_large_to_make_refused_naming_its_parameter(self, tmp_path, capsys,
                                                                  flag, value, named):
        # refused before any array is allocated, so the values can be huge
        args = {"--classes": "2", "--objects": "4", "--topics": "1",
                "--images-per-class": "1", "--patches": "0", flag: value}
        rc = main(["synth", *(part for item in args.items() for part in item),
                   "--out-dir", str(tmp_path / "data")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{named} {value}" in err and err.endswith("more than 16777216\n")
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag, named", [
        ("--classes", "n_classes"), ("--objects", "n_objects"), ("--topics", "n_topics"),
        ("--images-per-class", "images_per_class"),
    ], ids=["classes", "objects", "topics", "images-per-class"])
    def test_count_below_one_refused_naming_its_parameter(self, tmp_path, capsys, flag,
                                                          named, value):
        rc = main(["synth", flag, value, "--out-dir", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {named} must be at least 1, got {value}\n"
        assert not (tmp_path / "data").exists()

    def test_negative_patches_refused(self, tmp_path, capsys):
        assert main(["synth", "--patches", "-1", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: patches must be non-negative, got -1\n"

    def test_soft_target_record_emptied_by_dropout_refused_by_eval(self, tmp_path,
                                                                   capsys):
        # dropout draws per patch, so a record can lose every patch: its
        # descriptor would be an empty bag, which encoding refuses by name
        out = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--objects", "6", "--topics", "2",
                     "--images-per-class", "8", "--patches", "2", "--dropout", "0.6",
                     "--seed", "2", "--out-dir", str(out)]) == 0
        target = parse_manifest(out / "target.txt")
        empty = [rid for rid, a, b in zip(target.image_ids, target.bounds[:-1],
                                          target.bounds[1:]) if a == b]
        assert empty
        bundle = tmp_path / "m.bin"
        assert main(["train", "--train", str(out / "source.txt"), "--out", str(bundle),
                     "--set", "mode=soft", "--set", "object_count=4",
                     "--set", "pca_dim=4", "--set", "codebook_size=2",
                     "--set", "topic_count=1", "--set", "sgd_lambdas=1e-4",
                     "--set", "sgd_eta0s=0.5", "--set", "sgd_epochs=3"]) == 0
        capsys.readouterr()
        assert main(["eval", "--bundle", str(bundle), "--test", str(out / "target.txt"),
                     "--out-prefix", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == (f"error: empty bag: record {empty[0]!r} "
                                           f"has no patches\n")


class TestTrainEvalPredict:
    def test_eval_reports_metrics(self, trained_bundle, synth_files, tmp_path):
        prefix = tmp_path / "eval"
        rc = main(["eval", "--bundle", str(trained_bundle),
                   "--test", str(synth_files / "target.txt"),
                   "--out-prefix", str(prefix)])
        assert rc == 0
        metrics = read_csv(f"{prefix}_metrics.csv")
        assert metrics[0] == ["class", "accuracy", "support"]
        assert metrics[-1][0] == "CLASS_MEAN"
        mean_acc = float(metrics[-1][1])
        assert mean_acc > 1.0 / 3.0  # beats chance on planted data
        confusion = read_csv(f"{prefix}_confusion.csv")
        assert len(confusion) == 4
        total = sum(int(v) for row in confusion[1:] for v in row[1:])
        assert total == 36
        preds = read_csv(f"{prefix}_predictions.csv")
        assert len(preds) == 1 + 36

    def test_train_accuracy_beats_majority_baseline(self, trained_bundle,
                                                    synth_files, tmp_path):
        prefix = tmp_path / "selfeval"
        rc = main(["eval", "--bundle", str(trained_bundle),
                   "--test", str(synth_files / "source.txt"),
                   "--out-prefix", str(prefix)])
        assert rc == 0
        metrics = read_csv(f"{prefix}_metrics.csv")
        assert float(metrics[-1][1]) >= 1.0 / 3.0

    def test_separable_data_single_topic_self_eval_is_perfect(self, tmp_path):
        # the default spec, but a class object always fires in its own class
        # and never elsewhere, and nothing fires as noise or context
        spec = planted_spec(3, 12, 2, 12, seed=9)
        model = spec.score_model
        prob = np.select([model.detect_prob == synth.MARKER_PROB,
                          model.detect_prob == synth.CLASS_HI],
                         [synth.MARKER_PROB, 1.0], 0.0)
        spec = dataclasses.replace(spec, score_model=dataclasses.replace(model,
                                                                         detect_prob=prob))
        source, _ = generate(spec)
        path = tmp_path / "sep.txt"
        write_manifest(source, path)
        bundle = tmp_path / "sep.bundle"
        rc = main(["train", "--train", str(path), "--out", str(bundle),
                   "--set", "object_count=8", "--set", "topic_count=1",
                   "--set", "sgd_lambdas=1e-4", "--set", "sgd_eta0s=0.5",
                   "--set", "sgd_epochs=8", "--set", "seed=5"])
        assert rc == 0
        prefix = tmp_path / "sep_eval"
        rc = main(["eval", "--bundle", str(bundle), "--test", str(path),
                   "--out-prefix", str(prefix)])
        assert rc == 0
        metrics = read_csv(f"{prefix}_metrics.csv")
        assert float(metrics[-1][1]) == 1.0

    def test_predict_csv(self, trained_bundle, synth_files, tmp_path):
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--bundle", str(trained_bundle),
                   "--manifest", str(synth_files / "target.txt"),
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0][:2] == ["image_id", "predicted_class"]
        assert len(rows) == 1 + 36

    def test_unlabeled_eval_reports_na(self, trained_bundle, synth_files,
                                       tmp_path):
        text = (synth_files / "target.txt").read_text()
        lines = []
        for line in text.splitlines():
            if line.startswith("img "):
                parts = line.split()
                parts[2] = "?"
                line = " ".join(parts)
            lines.append(line)
        unlabeled = tmp_path / "unlabeled.txt"
        unlabeled.write_text("\n".join(lines))
        prefix = tmp_path / "na"
        rc = main(["eval", "--bundle", str(trained_bundle),
                   "--test", str(unlabeled), "--out-prefix", str(prefix)])
        assert rc == 0
        metrics = read_csv(f"{prefix}_metrics.csv")
        assert metrics[-1][1] == "n/a"
        assert (tmp_path / "na_predictions.csv").exists()

    def test_train_logs_every_stage(self, synth_files, tmp_path, capsys):
        out = tmp_path / "m.bin"
        assert main(["train", "--train", str(synth_files / "source.txt"),
                     "--out", str(out)] + SMALL) == 0
        assert train_log(capsys.readouterr().out) == [
            "[train] occurrence and posterior models: <t>s (12 objects x 3 classes)",
            "[train] object selection: <t>s (kept 8)",
            "[train] encoding: <t>s (36 descriptors of dim 192)",
            "[train] topic clustering: <t>s (2 topics)",
            "[train] ensemble training: <t>s (3 classes x 2 topics)",
            f"wrote {out}",
        ]

    def test_object_count_too_large_fails_cleanly(self, synth_files, tmp_path,
                                                  capsys):
        rc = main(["train", "--train", str(synth_files / "source.txt"),
                   "--out", str(tmp_path / "x.bin"),
                   "--set", "object_count=99", "--set", "topic_count=2"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "object_count must be in [1, 12]" in captured.err and "99" in captured.err
        assert "[train]" not in captured.out  # refused before the first stage

    @pytest.mark.parametrize("key", ["pca_dim", "codebook_size"])
    def test_soft_counts_refused_before_the_first_stage(self, soft_files, tmp_path,
                                                        capsys, key):
        source, _ = soft_files
        patches = int(parse_manifest(source).bounds[-1])
        counts = {"object_count": 10, "topic_count": 1, "pca_dim": 10,
                  "codebook_size": 4, key: 999}
        out = tmp_path / "x.bin"
        rc = main(["train", "--train", str(source), "--out", str(out), "--set", "mode=soft"]
                  + [arg for k, v in counts.items() for arg in ("--set", f"{k}={v}")])
        assert rc == 1
        captured = capsys.readouterr()
        limit, what = {
            "pca_dim": (min(patches, 30), f"the smaller of the {patches} training "
                                          f"patches and 10 objects x 3 classes"),
            "codebook_size": (patches, "the number of training patches"),
        }[key]
        assert captured.err == f"error: {key} must be in [1, {limit}], {what}, got 999\n"
        assert "[train]" not in captured.out  # refused before the first stage
        assert not out.exists()

    def test_select_objects_count_too_large_names_object_count(self, synth_files,
                                                               tmp_path, capsys):
        oom = tmp_path / "oom.bin"
        assert main(["build-oom", "--train", str(synth_files / "source.txt"),
                     "--out", str(oom)]) == 0
        rc = main(["select-objects", "--bundle", str(oom), "--count", "13",
                   "--out", str(tmp_path / "sel.bin")])
        assert rc == 1
        assert "object_count must be in [1, 12]" in capsys.readouterr().err
        assert not (tmp_path / "sel.bin").exists()

    def test_eval_csvs_do_not_depend_on_the_block_size(self, mode_files, tmp_path,
                                                       monkeypatch):
        source, target, args = mode_files
        bundle = tmp_path / "m.bin"
        assert main(["train", "--train", str(source), "--out", str(bundle)]
                    + SMALL + args) == 0
        outputs = []
        for budget in (pipeline._EVAL_BLOCK_BYTES, 1):  # one block; one image each
            monkeypatch.setattr(pipeline, "_EVAL_BLOCK_BYTES", budget)
            prefix = tmp_path / f"eval{budget}"
            assert main(["eval", "--bundle", str(bundle), "--test", str(target),
                         "--out-prefix", str(prefix)]) == 0
            outputs.append([(tmp_path / f"eval{budget}_{name}.csv").read_bytes()
                            for name in ("predictions", "metrics", "confusion")])
        assert outputs[0] == outputs[1]

    def test_default_topics_on_tiny_data_fails_cleanly(self, tmp_path, capsys):
        spec = planted_spec(2, 8, 2, 2, seed=4)  # 4 descriptors total
        source, _ = generate(spec)
        path = tmp_path / "tiny.txt"
        write_manifest(source, path)
        rc = main(["train", "--train", str(path), "--out", str(tmp_path / "x.bin"),
                   "--set", "object_count=4"])  # topic_count stays 5
        assert rc == 1
        captured = capsys.readouterr()
        assert "topic_count must be in [1, 4]" in captured.err
        assert "[train]" not in captured.out  # refused before the first stage


class TestInputErrors:
    @pytest.mark.parametrize("missing", ["bundle", "test"])
    def test_missing_input_file(self, missing, trained_bundle, synth_files, tmp_path,
                                capsys):
        paths = {"bundle": str(trained_bundle), "test": str(synth_files / "target.txt")}
        paths[missing] = str(tmp_path / "nope")
        rc = main(["eval", "--bundle", paths["bundle"], "--test", paths["test"],
                   "--out-prefix", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope" in err

    def test_oversized_pyramid_is_refused(self, synth_files, tmp_path, capsys):
        rc = main(["train", "--train", str(synth_files / "source.txt"),
                   "--out", str(tmp_path / "m.bundle"), "--set", "pyramid=3000x3000"]
                  + SMALL)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "regions" in err


class TestStagedCommands:
    def test_build_oom_inspect_select_encode_cluster(self, synth_files, tmp_path):
        oom_path = tmp_path / "oom.bin"
        rc = main(["build-oom", "--train", str(synth_files / "source.txt"),
                   "--out", str(oom_path)])
        assert rc == 0

        curves = tmp_path / "curves.csv"
        rc = main(["inspect", "--bundle", str(oom_path), "--object", "obj003",
                   "--out", str(curves)])
        assert rc == 0
        rows = read_csv(curves)
        assert rows[0] == ["theta", "class", "probability"]
        assert len(rows) == 1 + 21 * 3

        sel_path = tmp_path / "sel.bin"
        scores_csv = tmp_path / "scores.csv"
        rc = main(["select-objects", "--bundle", str(oom_path), "--count", "8",
                   "--out", str(sel_path), "--csv", str(scores_csv)])
        assert rc == 0
        assert len(read_csv(scores_csv)) == 1 + 8

        desc_path = tmp_path / "desc.bin"
        rc = main(["encode", "--bundle", str(sel_path),
                   "--manifest", str(synth_files / "source.txt"),
                   "--out", str(desc_path)])
        assert rc == 0
        desc = read_descriptor_file(desc_path)
        matrix = desc.matrix
        assert matrix.shape == (36, 8 * 8 * 3)
        assert len(desc.image_ids) == 36
        assert len(desc.selection_sha256) == 64

        desc_csv = tmp_path / "desc.csv"
        rc = main(["encode", "--bundle", str(sel_path),
                   "--manifest", str(synth_files / "source.txt"),
                   "--out", str(desc_csv), "--format", "csv"])
        assert rc == 0
        rows = read_csv(desc_csv)
        assert len(rows) == 1 + 36
        np.testing.assert_allclose(
            [float(v) for v in rows[1][1:]], matrix[0], rtol=0, atol=0)

        clustered = tmp_path / "clustered.bin"
        assign_csv = tmp_path / "topics.csv"
        rc = main(["cluster", "--bundle", str(sel_path),
                   "--manifest", str(synth_files / "source.txt"),
                   "--topics", "2", "--out", str(clustered),
                   "--csv", str(assign_csv)])
        assert rc == 0
        rows = read_csv(assign_csv)
        assert rows[0] == ["image_id", "topic", "distance"]
        assert {r[1] for r in rows[1:]} <= {"0", "1"}

    def test_csv_encode_holds_one_row_of_strings(self, trained_bundle, synth_files,
                                                 tmp_path):
        # every value's repr string at once would take several times the matrix
        peaks = {}
        for fmt in ("bin", "csv"):
            tracemalloc.start()
            try:
                assert main(["encode", "--bundle", str(trained_bundle),
                             "--manifest", str(synth_files / "target.txt"),
                             "--out", str(tmp_path / f"d.{fmt}"), "--format", fmt]) == 0
                _, peaks[fmt] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        matrix = read_descriptor_file(tmp_path / "d.bin").matrix
        assert peaks["csv"] <= peaks["bin"] + matrix.nbytes, (peaks, matrix.nbytes)
        rows = read_csv(tmp_path / "d.csv")
        assert [list(map(float, row[1:])) for row in rows[1:]] == matrix.tolist()

    def test_staged_counts_recorded_in_config(self, synth_files, tmp_path):
        source = str(synth_files / "source.txt")
        oom, sel, clustered = (tmp_path / name for name in ("oom.bin", "sel.bin", "cl.bin"))
        assert main(["build-oom", "--train", source, "--out", str(oom)]) == 0
        assert main(["select-objects", "--bundle", str(oom), "--count", "5",
                     "--out", str(sel)]) == 0
        assert main(["cluster", "--bundle", str(sel), "--manifest", source,
                     "--topics", "2", "--out", str(clustered)]) == 0
        assert load_bundle(sel).config.object_count == 5
        config = load_bundle(clustered).config
        assert (config.object_count, config.topic_count) == (5, 2)

    @pytest.mark.parametrize("rules", [[], ["--set", "prior=empirical",
                                            "--set", "fallback=last-valid"]],
                             ids=["uniform-prior", "empirical-last-valid"])
    def test_every_command_writes_a_bundle_that_loads(self, mode_files, tmp_path, rules):
        # validate refuses a config that contradicts the fitted components:
        # each command records the counts it fitted with, so none is refused
        source, _, mode_args = mode_files
        soft = bool(mode_args)
        train, oom, sel, cl = (tmp_path / f"{n}.bin" for n in ("train", "oom", "sel", "cl"))
        config = SMALL + mode_args + rules
        assert main(["train", "--train", str(source), "--out", str(train)] + config) == 0
        assert main(["build-oom", "--train", str(source), "--out", str(oom)] + config) == 0
        written = [train, oom, cl]
        if not soft:  # select-objects refuses a soft bundle; cluster reclusters it
            assert main(["select-objects", "--bundle", str(oom), "--count", "5",
                         "--out", str(sel)]) == 0
            written.append(sel)
        assert main(["cluster", "--bundle", str(train if soft else sel),
                     "--manifest", str(source), "--topics", "3", "--out", str(cl)]) == 0
        for path in written:
            again = tmp_path / "again.bin"
            save_bundle(load_bundle(path), again)
            assert again.read_bytes() == path.read_bytes()

    def test_staged_commands_rebuild_train_stages(self, synth_files, tmp_path):
        source = str(synth_files / "source.txt")
        oom, sel, clustered = (tmp_path / name for name in ("oom.bin", "sel.bin", "cl.bin"))
        assert main(["build-oom", "--train", source, "--out", str(oom)]) == 0
        assert main(["select-objects", "--bundle", str(oom), "--count", "7",
                     "--out", str(sel)]) == 0
        assert main(["cluster", "--bundle", str(sel), "--manifest", source,
                     "--topics", "2", "--out", str(clustered)]) == 0
        staged = load_bundle(clustered)
        trained = fit_pipeline(parse_manifest(source), PipelineConfig(
            object_count=7, topic_count=2, sgd_lambdas=(1e-4,), sgd_eta0s=(0.5,),
            sgd_epochs=2))
        for got, want in ((staged.posterior.posteriors, trained.posterior.posteriors),
                          (staged.posterior.fallback_mask, trained.posterior.fallback_mask),
                          (staged.selection.scores, trained.selection.scores),
                          (staged.topics.centroids, trained.topics.centroids)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert staged.selection.selected == trained.selection.selected
        assert staged.ensemble is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            staged.ensemble = trained.ensemble

    @pytest.mark.parametrize("count", ["999", "0"])
    def test_cluster_topic_count_refused_before_encoding(self, synth_files, tmp_path,
                                                         capsys, monkeypatch, count):
        source = str(synth_files / "source.txt")
        oom, sel, clustered = (tmp_path / name for name in ("oom.bin", "sel.bin", "cl.bin"))
        assert main(["build-oom", "--train", source, "--out", str(oom)]) == 0
        assert main(["select-objects", "--bundle", str(oom), "--count", "5",
                     "--out", str(sel)]) == 0
        capsys.readouterr()

        def refuse(*args):
            raise AssertionError("encoded the manifest")

        monkeypatch.setattr(cli, "encode_with_bundle", refuse)
        rc = main(["cluster", "--bundle", str(sel), "--manifest", source,
                   "--topics", count, "--out", str(clustered)])
        assert rc == 1
        assert (f"topic_count must be in [1, 36], the number of training images, "
                f"got {count}") in capsys.readouterr().err
        assert not clustered.exists()

    def test_soft_select_objects_refused_naming_train(self, soft_files, tmp_path,
                                                      capsys):
        source, _ = soft_files
        oom, sel = tmp_path / "oom.bin", tmp_path / "sel.bin"
        assert main(["build-oom", "--train", str(source), "--out", str(oom),
                     "--set", "mode=soft"]) == 0
        assert main(["inspect", "--bundle", str(oom), "--object", "obj003",
                     "--out", str(tmp_path / "curves.csv")]) == 0
        rc = main(["select-objects", "--bundle", str(oom), "--count", "5",
                   "--out", str(sel), "--csv", str(tmp_path / "sel.csv")])
        assert rc == 1
        assert capsys.readouterr().err == ("error: select-objects cannot refit a soft "
                                           "bundle's PCA and codebook; run train\n")
        assert not sel.exists() and not (tmp_path / "sel.csv").exists()
        for command in (["encode", "--bundle", str(oom), "--manifest", str(source),
                         "--out", str(tmp_path / "d.bin")],
                        ["cluster", "--bundle", str(oom), "--manifest", str(source),
                         "--topics", "2", "--out", str(tmp_path / "cl.bin")]):
            assert main(command) == 1
            assert capsys.readouterr().err.endswith("PCA or codebook; run train\n")

    def test_unlabeled_training_record_refused(self, synth_files, tmp_path, capsys):
        # build-oom and train run the same first stage, so both refuse the file
        text = (synth_files / "source.txt").read_text()
        first = next(line for line in text.splitlines() if line.startswith("img "))
        parts = first.split()
        parts[2] = "?"
        path = tmp_path / "unlabeled.txt"
        path.write_text(text.replace(first, " ".join(parts), 1))
        errors = []
        for command in ("build-oom", "train"):
            out = tmp_path / f"{command}.bin"
            assert main([command, "--train", str(path), "--out", str(out)] + SMALL) == 1
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: training manifest has unlabeled records: "
                                    f"[{parts[1]!r}]")

    def test_class_coverage_is_a_training_rule(self, trained_bundle, synth_files,
                                               tmp_path, capsys):
        # the target without class02, its split tag taken from the file name:
        # eval, predict and cluster read it under a train_* name as under any
        # other, and build-oom and train refuse it, naming the class, before
        # any stage line
        target = parse_manifest(synth_files / "target.txt")
        kept = tuple(r for r in target.records if r.scene_class != 2)
        text = to_text(DatasetManifest(target.vocabulary, target.classes, kept, "test",
                                       target.mode)).replace("#split test\n", "")
        metrics = {}
        for name in ("train_subset", "holdout_subset"):
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            assert parse_manifest(path).split_tag == name
            for command in (["eval", "--test", str(path), "--out-prefix",
                             str(tmp_path / name)],
                            ["predict", "--manifest", str(path), "--out",
                             str(tmp_path / f"{name}_pred.csv")],
                            ["cluster", "--manifest", str(path), "--topics", "2",
                             "--out", str(tmp_path / f"{name}.bin")]):
                assert main(command + ["--bundle", str(trained_bundle)]) == 0
            metrics[name] = read_csv(tmp_path / f"{name}_metrics.csv")
        assert metrics["train_subset"] == metrics["holdout_subset"]
        assert metrics["train_subset"][3] == ["class02", "n/a", "0"]
        capsys.readouterr()
        for command in ("build-oom", "train"):
            out = tmp_path / f"{command}.bin"
            assert main([command, "--train", str(tmp_path / "train_subset.txt"),
                         "--out", str(out)] + SMALL) == 1
            assert not out.exists()
            captured = capsys.readouterr()
            assert "[train]" not in captured.out
            assert captured.err == "error: scene class 'class02' has no labeled images\n"

    def test_one_class_training_manifest_refused(self, tmp_path, capsys):
        # train used to print its posterior line before failing in the
        # selection stage, and build-oom wrote a bundle no later stage takes
        data = tmp_path / "one"
        assert main(["synth", "--classes", "1", "--objects", "10", "--topics", "2",
                     "--images-per-class", "20", "--out-dir", str(data)]) == 0
        capsys.readouterr()
        for command in ("train", "build-oom"):
            out = tmp_path / f"{command}.bin"
            rc = main([command, "--train", str(data / "source.txt"), "--out", str(out),
                       "--set", "object_count=5", "--set", "topic_count=2"])
            assert rc == 1
            assert not out.exists()
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: training needs at least 2 scene classes, got 1\n"

    def test_non_utf8_manifest_names_the_line(self, trained_bundle, synth_files,
                                              tmp_path, capsys):
        data = (synth_files / "target.txt").read_bytes()
        at = data.index(b"\nimg ", 200) + 5
        path = tmp_path / "latin1.txt"
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        rc = main(["eval", "--bundle", str(trained_bundle), "--test", str(path),
                   "--out-prefix", str(tmp_path / "out")])
        assert rc == 1
        line = data[:at].count(b"\n") + 1
        assert capsys.readouterr().err == (f"error: line {line}: byte {at} is not UTF-8 "
                                           f"(invalid start byte)\n")

    def test_missing_selection_encode_fails(self, synth_files, tmp_path, capsys):
        oom_path = tmp_path / "oom.bin"
        main(["build-oom", "--train", str(synth_files / "source.txt"),
              "--out", str(oom_path)])
        rc = main(["encode", "--bundle", str(oom_path),
                   "--manifest", str(synth_files / "source.txt"),
                   "--out", str(tmp_path / "d.bin")])
        assert rc == 1
        assert "selection" in capsys.readouterr().err


class TestAblate:
    def test_sweep_table(self, synth_files, tmp_path):
        out = tmp_path / "ablate.csv"
        rc = main(["ablate", "--train", str(synth_files / "source.txt"),
                   "--test", str(synth_files / "target.txt"),
                   "--objects-list", "6,12", "--topics-list", "1,2",
                   "--out", str(out)] + SMALL)
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["objects", "topics", "pooling", "class_mean_accuracy"]
        assert len(rows) == 1 + 2 * 2 * 2
        combos = {(r[0], r[1], r[2]) for r in rows[1:]}
        assert ("12", "1", "average") in combos
        assert ("6", "2", "max") in combos

    @pytest.mark.parametrize("lists, message", [
        (["--objects-list", "4,99", "--topics-list", "1,2"],
         "object_count must be in [1, 12], the vocabulary size, got 99"),
        (["--objects-list", "4,6", "--topics-list", "1,999"],
         "topic_count must be in [1, 36], the number of training images, got 999"),
        (["--objects-list", "4", "--topics-list", "0,1"],
         "topic_count must be in [1, 36], the number of training images, got 0"),
    ], ids=["objects", "topics", "zero-topics"])
    def test_every_count_checked_before_the_first_fit(self, synth_files, tmp_path,
                                                      capsys, lists, message):
        out = tmp_path / "ablate.csv"
        rc = main(["ablate", "--train", str(synth_files / "source.txt"),
                   "--test", str(synth_files / "target.txt"),
                   "--out", str(out)] + lists + SMALL)
        assert rc == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "[ablate]" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("counts, message", [
        (["--set", "pca_dim=12", "--set", "codebook_size=4"],
         "pca_dim must be in [1, 6], the smaller of the {patches} training patches "
         "and 2 objects x 3 classes, got 12"),
        (["--set", "pca_dim=6", "--set", "codebook_size=999"],
         "codebook_size must be in [1, {patches}], the number of training patches, "
         "got 999"),
    ], ids=["pca_dim", "codebook_size"])
    def test_soft_counts_checked_for_every_object_count(self, soft_files, tmp_path,
                                                        capsys, counts, message):
        source, target = soft_files
        patches = int(parse_manifest(source).bounds[-1])
        out = tmp_path / "ablate.csv"
        rc = main(["ablate", "--train", str(source), "--test", str(target),
                   "--objects-list", "10,2", "--topics-list", "1", "--out", str(out),
                   "--set", "mode=soft", "--set", "topic_count=1"] + counts)
        assert rc == 1
        captured = capsys.readouterr()
        assert message.format(patches=patches) in captured.err
        assert "[ablate]" not in captured.out
        assert not out.exists()

    def test_full_object_row_equals_no_selection_run(self, mode_files, tmp_path):
        # keeping all 12 objects is the identity selection: the ablate row
        # must match a plain train+eval at the same settings
        source, target, mode_args = mode_files
        out = tmp_path / "ablate_full.csv"
        args = ["--set", "topic_count=2", "--set", "sgd_lambdas=1e-4",
                "--set", "sgd_eta0s=0.5", "--set", "sgd_epochs=8",
                "--set", "seed=3"] + mode_args
        rc = main(["ablate", "--train", str(source), "--test", str(target),
                   "--objects-list", "12", "--topics-list", "2",
                   "--out", str(out)] + args)
        assert rc == 0
        row = [r for r in read_csv(out)[1:] if r[2] == "average"][0]
        bundle = tmp_path / "full.bundle"
        rc = main(["train", "--train", str(source),
                   "--out", str(bundle), "--set", "object_count=12"] + args)
        assert rc == 0
        prefix = tmp_path / "full_eval"
        rc = main(["eval", "--bundle", str(bundle), "--test", str(target),
                   "--out-prefix", str(prefix)])
        assert rc == 0
        metrics = read_csv(f"{prefix}_metrics.csv")
        assert row[3] == metrics[-1][1]


class TestSoftPipeline:
    def train(self, tmp_path):
        """Train a soft bundle on planted soft manifests of 6 patches per
        image; returns the bundle path and the target manifest path."""
        source, target = generate(planted_spec(3, 10, 2, 10, seed=6), patches=6)
        src_path, tgt_path = tmp_path / "soft_src.txt", tmp_path / "soft_tgt.txt"
        write_manifest(source, src_path)
        write_manifest(target, tgt_path)
        out = tmp_path / "soft.bin"
        rc = main(["train", "--train", str(src_path), "--out", str(out),
                   "--set", "mode=soft", "--set", "object_count=6",
                   "--set", "pca_dim=10", "--set", "codebook_size=4",
                   "--set", "topic_count=2", "--set", "sgd_lambdas=1e-4",
                   "--set", "sgd_eta0s=0.5", "--set", "sgd_epochs=6"])
        assert rc == 0
        return out, tgt_path

    def test_soft_train_eval(self, tmp_path):
        out, tgt_path = self.train(tmp_path)
        bundle = load_bundle(out)
        assert bundle.pca is not None and bundle.codebook is not None
        assert bundle.ensemble.dim == 4 * 10
        prefix = tmp_path / "soft_eval"
        rc = main(["eval", "--bundle", str(out), "--test", str(tgt_path),
                   "--out-prefix", str(prefix)])
        assert rc == 0

    def test_soft_train_logs_pca_and_codebook_stages(self, tmp_path, capsys):
        out, _ = self.train(tmp_path)
        assert train_log(capsys.readouterr().out) == [
            "[train] occurrence and posterior models: <t>s (10 objects x 3 classes)",
            "[train] object selection: <t>s (kept 6)",
            "[train] pca: <t>s (180 patches, dim 18 -> 10)",
            "[train] codebook: <t>s (4 words)",
            "[train] encoding: <t>s (30 descriptors of dim 40)",
            "[train] topic clustering: <t>s (2 topics)",
            "[train] ensemble training: <t>s (3 classes x 2 topics)",
            f"wrote {out}",
        ]


class TestDeterminismAndPersistence:
    def test_double_run_byte_identical(self, synth_files, tmp_path):
        outs = []
        for name in ("a", "b"):
            bundle_path = tmp_path / f"{name}.bin"
            rc = main(["train", "--train", str(synth_files / "source.txt"),
                       "--out", str(bundle_path)] + SMALL)
            assert rc == 0
            prefix = tmp_path / f"{name}_eval"
            rc = main(["eval", "--bundle", str(bundle_path),
                       "--test", str(synth_files / "target.txt"),
                       "--out-prefix", str(prefix)])
            assert rc == 0
            outs.append((bundle_path.read_bytes(),
                         (tmp_path / f"{name}_eval_metrics.csv").read_bytes(),
                         (tmp_path / f"{name}_eval_predictions.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_bundle_round_trip_predictions_bit_identical(self, trained_bundle,
                                                         synth_files, tmp_path):
        from oomscene.pipeline import encode_with_bundle
        from oomscene.ensemble import predict_batch
        from oomscene.ingest import parse_manifest
        bundle = load_bundle(trained_bundle)
        test = parse_manifest(synth_files / "target.txt")
        X = encode_with_bundle(bundle, test)
        pred1, scores1 = predict_batch(bundle.ensemble, X)
        reloaded = load_bundle(trained_bundle)
        X2 = encode_with_bundle(reloaded, test)
        pred2, scores2 = predict_batch(reloaded.ensemble, X2)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(pred1, pred2)
        np.testing.assert_array_equal(scores1, scores2)

    @pytest.mark.parametrize("read, data, field", [
        (load_bundle, b"NOTABUNDLE", "magic"),
        (load_bundle, b"OOMSCENE", "version"),
        # a version-1 bundle whose pickle would call divmod(1, 0): never unpickled
        (load_bundle, b"OOMSCENE\x00\x01cbuiltins\ndivmod\n(I1\nI0\ntR.", "version"),
        (read_descriptor_file, b"OOMSDESC\x00\x03\x00\x00", "header length"),
        (read_descriptor_file, b"OOMSDESC\x00\x03\x00\x00\x00\x10{}", "header"),
        (read_descriptor_file, b"OOMSDESC\x00\x03\x00\x00\x00\x05{rows", "header"),
        (read_descriptor_file, b"OOMSDESC\x00\x03\x00\x00\x00\x02[]", "header"),
        (read_descriptor_file,
         b"OOMSDESC\x00\x03" + struct.pack(">I", 200000) + b"[" * 200000, "header"),
        (load_bundle, b"OOMSCENE" + struct.pack(">HI", BUNDLE_VERSION, 200000)
         + b"[" * 200000, "header"),
        (read_descriptor_file, container(b"OOMSDESC", {"rows": 1}), "arrays"),
        (read_descriptor_file,
         container(b"OOMSDESC", {"arrays": [{"dtype": "<i8", "shape": [1]}]}),
         r"arrays\[0\]"),
        (read_descriptor_file,
         container(b"OOMSDESC", {"rows": 1, "cols": 2,
                                 "arrays": [{"dtype": "<f8", "shape": [1, 2]}]}, bytes(8)),
         "payload"),
        (read_descriptor_file, descriptor_file(), "image_ids"),
        (read_descriptor_file, descriptor_file(**{**GOOD_DESC, "image_ids": ["a"]}),
         r"image_ids holds 1 ids, not one per row of a 2-D matrix of shape \(3, 2\)"),
        (read_descriptor_file,
         descriptor_file(image_ids=5, layout="x", selection_sha256=7), "image_ids"),
        (read_descriptor_file, descriptor_file(**{**GOOD_DESC, "image_ids": ["a", "b", 3]}),
         "image_ids"),
        (read_descriptor_file, descriptor_file(**{**GOOD_DESC, "layout": "x"}), "layout"),
        (read_descriptor_file, descriptor_file(**{**GOOD_DESC, "layout": [[0, 1]]}),
         "layout"),
        # JSON decodes Infinity, a float and not an integer
        (read_descriptor_file,
         descriptor_file(**{**GOOD_DESC, "layout": [[float("inf"), 1]]}), "layout"),
        # a bool or a float is not a JSON integer
        (read_descriptor_file, descriptor_file(**{**GOOD_DESC, "layout": [[True, 1]]}),
         r"descriptor.layout does not hold a tuple\[tuple\[int, int\], ...\]"),
        (read_descriptor_file, descriptor_file(**{**GOOD_DESC, "layout": [[1.5, 2]]}),
         r"descriptor.layout does not hold a tuple\[tuple\[int, int\], ...\]"),
        (read_descriptor_file, descriptor_file(**{**GOOD_DESC, "selection_sha256": 7}),
         "selection_sha256"),
        (read_descriptor_file,
         descriptor_file(**{**GOOD_DESC, "selection_sha256": "A" * 64}), "selection_sha256"),
        (load_bundle,
         container(b"OOMSCENE", {"bundle": {"array": 0},
                                  "arrays": [{"dtype": "<f8", "shape": [1]}]}),
         "payload"),
        # float64 is the only dtype: a bool is refused before its byte is read
        (load_bundle,
         container(b"OOMSCENE", {"bundle": {"array": 0},
                                  "arrays": [{"dtype": "|b1", "shape": [1]}]},
                   b"\x02" + bytes(7)),
         r"header field 'arrays\[0\]' is not a <f8 dtype"),
        (load_bundle, container(b"OOMSCENE", {"bundle": [1, 2], "arrays": []}),
         "bundle field"),
        (load_bundle, container(b"OOMSCENE", {"bundle": {"array": 0}, "arrays": []}),
         "bundle: array index"),
        (load_bundle,
         container(b"OOMSCENE", {"bundle": {"Popen": {"args": "true"}}, "arrays": []}),
         "bundle: 'Popen' is not a bundle node"),
        # valid JSON, but deeper than rebuilding the tree can recurse
        (load_bundle,
         container(b"OOMSCENE", {"bundle": json.loads("[" * 600 + "]" * 600),
                                 "arrays": []}),
         "bundle field nests too deeply"),
        # version 2 kept rows and cols beside the array's own shape
        (read_descriptor_file,
         b"OOMSDESC\x00\x02" + descriptor_file(**GOOD_DESC)[10:],
         "version field holds 2, this reader reads descriptor file version 3"),
        (read_descriptor_file,
         container(b"OOMSDESC", {"descriptor": {"DescriptorFile": {
             "matrix": {"array": 0}, **GOOD_DESC}},
             "arrays": [{"dtype": "<f8", "shape": [6]}]}, bytes(48)),
         r"image_ids holds 3 ids, not one per row of a 2-D matrix of shape \(6,\)"),
        (read_descriptor_file,
         container(b"OOMSDESC", {"descriptor": {"SgdConfig": {"lam": 1.0, "eta0": 1.0}},
                                 "arrays": []}),
         "descriptor field holds a SgdConfig, not a descriptor file"),
        (read_descriptor_file,
         container(b"OOMSDESC", {"descriptor": json.loads("[" * 600 + "]" * 600),
                                 "arrays": []}),
         "descriptor field nests too deeply"),
    ], ids=["bundle-magic", "bundle-version", "bundle-payload-raises",
            "desc-header-length", "desc-header", "desc-header-json", "desc-header-object",
            "desc-header-deep", "bundle-header-deep", "desc-arrays", "desc-array-dtype",
            "desc-payload", "desc-no-metadata", "desc-ids-count",
            "desc-metadata-types", "desc-id-type", "desc-layout", "desc-layout-level",
            "desc-layout-infinite",
            "desc-layout-bool", "desc-layout-float", "desc-hash-type", "desc-hash-case",
            "bundle-payload-empty", "bundle-payload-bool",
            "bundle-payload-type",
            "bundle-array-index", "bundle-node-type", "bundle-tree-deep",
            "desc-version-2", "desc-matrix-1d", "desc-node-type", "desc-tree-deep"])
    def test_bad_magic_rejected(self, tmp_path, read, data, field):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data)
        from oomscene.errors import FormatError
        with pytest.raises(FormatError, match=field):
            read(bad)
