"""Command-line interface: synthesize, build, select, encode, cluster, train,
predict, evaluate, and ablate — all on manifest files and model bundles.

The pipeline itself lives in :mod:`oomscene.pipeline`; this module only parses
arguments, assembles configs and writes files.

Every subcommand is deterministic for fixed seeds and inputs; output files
contain no timestamps, so repeat runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bundle import (
    PipelineConfig,
    config_file_pairs,
    config_from_pairs,
    load_bundle,
    save_bundle,
    selection_hash,
    write_descriptor_file,
)
from .ensemble import predict_batch
from .errors import PipelineError
from .ingest import SOFT, parse_manifest, write_manifest
from .pipeline import (
    POSTERIOR,
    SELECTION,
    STAGES,
    TOPICS,
    check_counts,
    class_mean_accuracy,
    confusion_matrix,
    encode_with_bundle,
    evaluate_bundle,
    fit_pipeline,
    per_class_accuracy,
    run_stages,
)
from .synth import (
    DomainShift,
    generate,
    hidden_topics,
    planted_spec,
)
from .topics import assign_topics_batch


# ------------------------------------------------------------ csv output

def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _write_predictions(path, manifest, pred, scores):
    header = ["image_id", "predicted_class"] + [f"score_{n}" for n in manifest.classes.names]
    rows = []
    for rid, p, s in zip(manifest.image_ids, pred, scores):
        rows.append([rid, manifest.classes.names[int(p)]] + [_fmt(v) for v in s])
    _write_csv(path, header, rows)


def _write_metrics(path, manifest, pred, y_true):
    n_cls = len(manifest.classes)
    labeled = y_true >= 0
    rows = []
    if labeled.any():
        acc = per_class_accuracy(y_true, pred, n_cls)
        support = confusion_matrix(y_true, pred, n_cls).sum(axis=1)
        for c, name in enumerate(manifest.classes.names):
            value = "n/a" if np.isnan(acc[c]) else _fmt(acc[c])
            rows.append([name, value, int(support[c])])
        mean = class_mean_accuracy(y_true, pred, n_cls)
        rows.append(["CLASS_MEAN", _fmt(mean), int(labeled.sum())])
    else:
        for name in manifest.classes.names:
            rows.append([name, "n/a", 0])
        rows.append(["CLASS_MEAN", "n/a", 0])
    _write_csv(path, ["class", "accuracy", "support"], rows)
    return rows


def _write_confusion(path, manifest, pred, y_true):
    cm = confusion_matrix(y_true, pred, len(manifest.classes))
    header = ["true\\pred"] + list(manifest.classes.names)
    rows = [[name] + [int(v) for v in cm[i]] for i, name in enumerate(manifest.classes.names)]
    _write_csv(path, header, rows)


# ------------------------------------------------------------- commands

def _config_from_args(args) -> PipelineConfig:
    # the file's pairs, then --set's, make one config
    pairs = config_file_pairs(args.config) if getattr(args, "config", None) else []
    pairs += getattr(args, "set", None) or []
    cfg = config_from_pairs(pairs)
    if getattr(args, "profile", None):
        # the profile sets the object count: an explicit one would be lost
        if any(pair.partition("=")[0].strip() == "object_count" for pair in pairs):
            raise ValueError(f"--profile {args.profile} sets object_count; "
                             f"give one or the other, not both")
        cfg = cfg.with_profile(args.profile)
    return cfg


def cmd_synth(args) -> int:
    shift = DomainShift(score_offset=args.offset, score_scale=args.scale,
                        dropout=args.dropout)
    spec = planted_spec(args.classes, args.objects, args.topics,
                        args.images_per_class, shift=shift, seed=args.seed)
    source, target = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(source, out / "source.txt")
    write_manifest(target, out / "target.txt")
    for name, manifest in (("source", source), ("target", target)):
        rows = [[rid, int(t)] for rid, t in zip(manifest.image_ids, hidden_topics(manifest))]
        _write_csv(out / f"{name}_topics.csv", ["image_id", "hidden_topic"], rows)
    print(f"wrote {out / 'source.txt'} ({len(source)} records) and "
          f"{out / 'target.txt'} ({len(target)} records)")
    return 0


def cmd_build_oom(args) -> int:
    config = _config_from_args(args)
    train = parse_manifest(args.train, mode=config.mode)
    bundle, _, made = POSTERIOR.fit(config, train, None, None)
    save_bundle(bundle, args.out)
    print(f"wrote {args.out}: occurrence model over {made['objects']} objects, "
          f"{made['classes']} classes, {made['thresholds']} thresholds")
    return 0


def cmd_inspect(args) -> int:
    bundle = load_bundle(args.bundle)
    obj = bundle.vocabulary.index(args.object)
    rows = []
    for t, theta in enumerate(bundle.posterior.grid.values):
        for c, cls in enumerate(bundle.classes.names):
            rows.append([f"{theta:.6f}", cls,
                         _fmt(bundle.posterior.posteriors[obj, c, t])])
    _write_csv(args.out, ["theta", "class", "probability"], rows)
    print(f"wrote {args.out}: posterior curves for {args.object!r}")
    return 0


def cmd_select_objects(args) -> int:
    bundle = load_bundle(args.bundle)
    if bundle.config.mode == SOFT:  # the PCA and codebook fit on a training manifest
        raise ValueError("select-objects cannot refit a soft bundle's PCA and "
                         "codebook; run train")
    bundle, _, made = SELECTION.fit(replace(bundle.config, object_count=args.count),
                                    None, bundle, None)
    save_bundle(bundle, args.out)
    selection = bundle.selection
    if args.csv:
        rows = [
            [bundle.vocabulary.names[i], _fmt(selection.scores[i]), rank]
            for rank, i in enumerate(selection.selected)
        ]
        _write_csv(args.csv, ["object", "discriminability", "rank"], rows)
    print(f"wrote {args.out}: selected {made['kept']} objects")
    return 0


def cmd_encode(args) -> int:
    bundle = load_bundle(args.bundle)
    manifest = parse_manifest(args.manifest, mode=bundle.config.mode)
    X = encode_with_bundle(bundle, manifest)
    ids = manifest.image_ids
    if args.format == "csv":
        # a row's strings at a time: all of them at once take ten times X
        rows = ([rid, *map(repr, row.tolist())] for rid, row in zip(ids, X))
        _write_csv(args.out, ["image_id"] + [f"d{i}" for i in range(X.shape[1])], rows)
    else:
        write_descriptor_file(args.out, X, ids, bundle.config.pyramid_layout(),
                              selection_hash(bundle.vocabulary, bundle.selection))
    print(f"wrote {args.out}: {X.shape[0]} descriptors of dim {X.shape[1]}")
    return 0


def cmd_cluster(args) -> int:
    bundle = load_bundle(args.bundle)
    manifest = parse_manifest(args.manifest, mode=bundle.config.mode)
    check_counts(manifest, topic_counts=[args.topics])
    X = encode_with_bundle(bundle, manifest)
    bundle, _, made = TOPICS.fit(replace(bundle.config, topic_count=args.topics),
                                 manifest, bundle, X)
    save_bundle(bundle, args.out)
    if args.csv:
        labels, dists = assign_topics_batch(bundle.topics, X)
        rows = [
            [rid, int(l), _fmt(d)]
            for rid, l, d in zip(manifest.image_ids, labels, dists)
        ]
        _write_csv(args.csv, ["image_id", "topic", "distance"], rows)
    print(f"wrote {args.out}: {made['topics']} topics "
          f"(inertia {made['inertia']:.6f}, {made['iterations']} iterations)")
    return 0


def _print_stage(stage, seconds, diagnostics):
    steps = diagnostics.get("steps", [])
    rest = seconds - sum(secs for _, secs, _ in steps)
    for name, secs, detail in [*steps, (stage.name, rest, stage.detail.format(**diagnostics))]:
        print(f"[train] {name}: {secs:.3f}s ({detail})")


def cmd_train(args) -> int:
    config = _config_from_args(args)
    train = parse_manifest(args.train, mode=config.mode)
    bundle = fit_pipeline(train, config, log=_print_stage)
    save_bundle(bundle, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    bundle = load_bundle(args.bundle)
    manifest = parse_manifest(args.manifest, mode=bundle.config.mode)
    pred, scores, _ = evaluate_bundle(bundle, manifest, pooling=args.pooling)
    _write_predictions(args.out, manifest, pred, scores)
    print(f"wrote {args.out}: {len(pred)} predictions")
    return 0


def cmd_eval(args) -> int:
    bundle = load_bundle(args.bundle)
    test = parse_manifest(args.test, mode=bundle.config.mode)
    pred, scores, y_true = evaluate_bundle(bundle, test, pooling=args.pooling)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    _write_predictions(f"{prefix}_predictions.csv", test, pred, scores)
    rows = _write_metrics(f"{prefix}_metrics.csv", test, pred, y_true)
    _write_confusion(f"{prefix}_confusion.csv", test, pred, y_true)
    mean_row = rows[-1]
    print(f"class-mean accuracy: {mean_row[1]} over {mean_row[2]} labeled images")
    return 0


def cmd_ablate(args) -> int:
    config = _config_from_args(args)
    train = parse_manifest(args.train, mode=config.mode)
    test = parse_manifest(args.test, mode=config.mode)
    object_counts = args.objects_list or [config.object_count]
    topic_counts = args.topics_list or sorted({1, config.topic_count})
    check_counts(train, object_counts, topic_counts, config)
    y_true = test.labels

    rows = []
    for r in object_counts:  # the encoder depends on the object count alone
        encoder, X_tr = run_stages(STAGES[:3], replace(config, object_count=r), train)
        X_te = encode_with_bundle(encoder, test)
        for d in topic_counts:
            bundle, _ = run_stages(STAGES[3:], replace(encoder.config, topic_count=d),
                                   train, encoder, X_tr)
            for pooling in ("average", "max"):
                pred, _ = predict_batch(bundle.ensemble, X_te, pooling=pooling)
                acc = class_mean_accuracy(y_true, pred, len(test.classes))
                rows.append([r, d, pooling, _fmt(acc)])
                print(f"[ablate] objects={r} topics={d} pooling={pooling}: {_fmt(acc)}")
    _write_csv(args.out, ["objects", "topics", "pooling", "class_mean_accuracy"], rows)
    print(f"wrote {args.out}")
    return 0


# --------------------------------------------------------------- parser

def _add_config_args(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--profile", choices=("snapstore", "mit67"),
                   help="published object-count operating point")


def _int_list(text):
    return [int(p) for p in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oomscene",
        description="Scene recognition from object detection scores via "
                    "occurrence statistics, semantic descriptors, and "
                    "latent-topic classifier ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate planted source/target manifests")
    p.add_argument("--classes", type=int, default=6)
    p.add_argument("--objects", type=int, default=40)
    p.add_argument("--topics", type=int, default=3)
    p.add_argument("--images-per-class", type=int, default=100)
    p.add_argument("--offset", type=float, default=0.15)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-oom", help="build occurrence + posterior models")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(func=cmd_build_oom)

    p = sub.add_parser("inspect", help="dump one object's posterior curves as CSV")
    p.add_argument("--bundle", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("select-objects", help="pick the most discriminant objects")
    p.add_argument("--bundle", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write per-object scores")
    p.set_defaults(func=cmd_select_objects)

    p = sub.add_parser("encode", help="encode a manifest with a bundle's models")
    p.add_argument("--bundle", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("cluster", help="fit latent topics over encoded descriptors")
    p.add_argument("--bundle", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write per-image topic assignments")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="run the full training pipeline")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict classes for a manifest")
    p.add_argument("--bundle", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pooling", choices=("average", "max"), default="average")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a bundle on a labeled manifest")
    p.add_argument("--bundle", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--pooling", choices=("average", "max"), default="average")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="sweep object counts, topics, and pooling")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--objects-list", type=_int_list, metavar="R1,R2,...")
    p.add_argument("--topics-list", type=_int_list, metavar="D1,D2,...")
    _add_config_args(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
