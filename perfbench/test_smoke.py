"""Smoke test: every workload runs at a tiny shape and emits every metric.

Also checks the planted soft generator: held-out same-domain accuracy must be
well above chance.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import oomscene  # noqa: E402
from soft_synth import generate_soft  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(bench.TINY))
def test_tiny_workload_emits_every_metric(tmp_path, name, trace):
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(bench.WORKLOADS)
    result = bench.run(bench.TINY[name], seed=3, seconds=0.2, trace=bool(trace),
                       out_dir=tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["errors"]
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    got = {k: unit for k, (_, unit) in result["metrics"].items()}
    assert got == want
    assert all(np.isfinite(v) for v, _ in result["metrics"].values())


def test_soft_generator_held_out_accuracy_above_chance():
    classes = 8
    spec = oomscene.planted_spec(classes, 60, 3, 40, seed=5)  # identity shift
    source, held_out = generate_soft(spec, patches=8)
    config = oomscene.PipelineConfig(mode="soft", object_count=40, pca_dim=64,
                                     codebook_size=8, topic_count=1,
                                     sgd_lambdas=(1e-5,), sgd_eta0s=(1.0,),
                                     sgd_epochs=10, seed=5)
    fit = bench._pipeline_module("fit_pipeline").fit_pipeline
    evaluate = bench._pipeline_module("evaluate_bundle").evaluate_bundle
    pred, _, y_true = evaluate(fit(source, config), held_out)
    assert bench.class_mean_accuracy(y_true, pred, classes) > 2.5 / classes


def test_soft_generator_is_deterministic_and_shifts_the_target():
    spec = oomscene.planted_spec(4, 12, 2, 2, seed=9,
                                 shift=oomscene.DomainShift(score_offset=0.15))
    a_src, a_tgt = generate_soft(spec, patches=3)
    b_src, b_tgt = generate_soft(spec, patches=3)
    assert oomscene.to_text(a_src) == oomscene.to_text(b_src)
    assert oomscene.to_text(a_tgt) == oomscene.to_text(b_tgt)
    floor = min(float(p.scores.min()) for r in a_tgt.records for p in r.detections)
    assert floor >= 0.15
