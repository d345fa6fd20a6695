"""Workloads, operations and output checks of the oomscene benchmark.

One client in one process runs operations back to back (a closed loop):

* train operation: parse the source manifest text, then ``fit_pipeline``;
  the bundle is then written with ``save_bundle``.
* eval operation, the equivalent of ``oomscene eval``: ``load_bundle`` from
  the file, ``parse_manifest_text`` on one 32-image target batch, then
  ``evaluate_bundle``.

The measured window interleaves train operations, eval operations and
repeated set-ups, each held to a fixed share of the window, so that every
timing samples the machine across the whole window.  Every operation is one
attempt; it fails on a ``PipelineError`` or when its output check fails.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oomscene
from soft_synth import generate_soft
from tracing import Tracer, layer_metrics

BATCH = 32
MIN_EVAL_SAMPLES = 100  # so that ten eval samples lie beyond the p90
# Shares of the measured window.  Each step runs the activity furthest behind
# its share, so trains, evals and set-ups are spread over the whole window.
SHARES = {"train": 0.55, "eval": 0.3, "setup": 0.15}
# The first eval operations after a process's first training run up to twice
# as slow for about half a second; operations in this window are not timed.
WARMUP_S = 1.5
SCORE_OFFSET = 0.15     # the target domain's score shift, as in `oomscene synth`


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    classes: int
    objects: int
    topics: int
    train_images: int         # per class, source domain
    heldout_images: int       # per class, source domain, never trained on
    target_images: int        # per class, shifted target domain
    descriptor_dim: int       # the contract the trained bundle must meet
    config: dict = field(default_factory=dict)
    patches: int = 0          # soft mode: patches per image

    def __post_init__(self):
        if (self.classes * self.target_images) % BATCH:
            raise ValueError(f"{self.name}: target images must fill {BATCH}-image batches")


WORKLOADS = {
    # ROADMAP small shape, default 6-point grid, 5-fold CV, 30 epochs:
    # the per-sample SGD loop dominates, data layers barely show.
    "train-small": Workload(
        "train-small", "hard", classes=8, objects=60, topics=3, train_images=40,
        heldout_images=40, target_images=80, descriptor_dim=8 * 40 * 8,
        config=dict(object_count=40, topic_count=3)),
    # soft mode at the ROADMAP paper shape: R=140, so d = 140 x 18 = 2520
    # before PCA to 500, 100-word codebook; PCA, VLAD encoding, the 50000-dim
    # ensemble and memory dominate.  One model topic: with three, each
    # (class, topic) model sees about five images and held-out accuracy swings
    # with the seed.
    "soft-paper": Workload(
        "soft-paper", "soft", classes=18, objects=200, topics=3, train_images=16,
        heldout_images=40, target_images=16, descriptor_dim=100 * 500,
        patches=8,
        config=dict(mode="soft", object_count=140, pca_dim=500, codebook_size=100,
                    topic_count=1, sgd_lambdas=(1e-5,), sgd_eta0s=(1.0,),
                    sgd_epochs=10)),
}

# Same structure at a second or two per run, for the smoke test.
TINY = {
    "train-small": replace(
        WORKLOADS["train-small"], objects=30, train_images=8, heldout_images=8,
        target_images=8, descriptor_dim=8 * 12 * 8,
        config=dict(object_count=12, topic_count=3, sgd_epochs=3, folds=2)),
    "soft-paper": replace(
        WORKLOADS["soft-paper"], objects=30, patches=4, heldout_images=8,
        descriptor_dim=4 * 16,
        config=dict(mode="soft", object_count=20, pca_dim=16, codebook_size=4,
                    topic_count=3, sgd_lambdas=(1e-5,), sgd_eta0s=(1.0,),
                    sgd_epochs=3)),
}


def _pipeline_module(name: str):
    """The module that defines a pipeline entry function, wherever it lives."""
    for module_name in ("oomscene", "oomscene.pipeline", "oomscene.cli"):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if hasattr(module, name):
            return module
    raise ImportError(f"oomscene has no public {name}")


def per_class_slice(manifest, start: int, stop: int, split_tag: str):
    """The records whose rank within their class lies in [start, stop)."""
    kept, seen = [], {}
    for record in manifest.records:
        rank = seen.get(record.scene_class, 0)
        seen[record.scene_class] = rank + 1
        if start <= rank < stop:
            kept.append(record)
    return oomscene.DatasetManifest(manifest.vocabulary, manifest.classes, tuple(kept),
                                    split_tag, manifest.mode)


def class_mean_accuracy(y_true, y_pred, n_classes: int) -> float:
    acc = [np.mean(y_pred[y_true == c] == c) for c in range(n_classes)
           if np.any(y_true == c)]
    return float(np.mean(acc))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    """The 90th percentile, reported only when ten samples lie beyond it."""
    return statistics.quantiles(values, n=10)[8] if len(values) >= MIN_EVAL_SAMPLES else 0.0


@dataclass
class Inputs:
    source_text: str
    batches: list   # one manifest text per target batch
    heldout: object  # source-domain manifest for the accuracy check


class Bench:
    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 tracer: Tracer | None = None):
        self.wl = workload
        self.seed = seed
        self.config = oomscene.PipelineConfig(**workload.config, seed=seed)
        self.bundle_path = workdir / "model.bundle"
        self.tracer = tracer
        self._fit = _pipeline_module("fit_pipeline")
        self._evaluate = _pipeline_module("evaluate_bundle")
        self.inputs: Inputs | None = None
        self.in_memory_output = None  # first trained bundle's output on batch 0
        self.first_output: dict[int, tuple] = {}  # batch -> (pred, scores, labels)
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.train_s: list[float] = []
        self.eval_s: list[float] = []
        self.warm_until = 0.0
        self._next_batch = 0
        self._op = 0

    # ----------------------------------------------------------- operations

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def _begin_op(self, round_id: int, name: str):
        self.attempted += 1
        self._op += 1
        if self.tracer is not None and self.tracer.installed:
            self.tracer.begin_op(self._op, round_id)
            return self.tracer.span(name)
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def _untraced(self):
        """Run a check outside the trace, so that it adds no spans."""
        installed = self.tracer is not None and self.tracer.installed
        if installed:
            self.tracer.uninstall()
        try:
            yield
        finally:
            if installed:
                self.tracer.install()

    def _evaluate_batch(self, bundle, batch: int):
        manifest = oomscene.parse_manifest_text(self.inputs.batches[batch],
                                                mode=self.config.mode)
        return self._evaluate.evaluate_bundle(bundle, manifest)

    def train(self, round_id: int) -> bool:
        """One train operation, then save_bundle; False if it failed."""
        gc.collect()  # garbage of earlier operations must not raise this one's peak
        with self._begin_op(round_id, "op.train"):
            t0 = time.perf_counter()
            try:
                manifest = oomscene.parse_manifest_text(self.inputs.source_text,
                                                        mode=self.config.mode)
                bundle = self._fit.fit_pipeline(manifest, self.config)
            except oomscene.PipelineError as exc:
                self._fail(f"train: {exc}")
                return False
            self.train_s.append(time.perf_counter() - t0)
            oomscene.save_bundle(bundle, self.bundle_path)
        dim = bundle.descriptor_dim()
        if dim != self.wl.descriptor_dim:
            self._fail(f"train: descriptor dimension {dim}, "
                       f"contract {self.wl.descriptor_dim}")
        if self.in_memory_output is None:
            with self._untraced():
                self.in_memory_output = self._evaluate_batch(bundle, 0)
        return True

    def evaluate(self, round_id: int, batch: int, timed: bool = True) -> None:
        """One eval operation on a target batch.

        Its output must be bit-identical to the first output seen for the
        batch: across the run's operations and retrained bundles, and between
        traced and untraced rounds.
        """
        timed = timed and time.perf_counter() >= self.warm_until
        with self._begin_op(round_id, "op.eval"):
            t0 = time.perf_counter()
            try:
                bundle = oomscene.load_bundle(self.bundle_path)
                pred, scores, y_true = self._evaluate_batch(bundle, batch)
            except oomscene.PipelineError as exc:
                self._fail(f"eval: {exc}")
                return
            elapsed = time.perf_counter() - t0
        if timed:
            self.eval_s.append(elapsed)
        first = self.first_output.setdefault(batch, (pred, scores, y_true))
        if not (np.array_equal(pred, first[0]) and np.array_equal(scores, first[1])):
            self._fail(f"eval: batch {batch} differs from its first evaluation")

    def next_batch(self) -> int:
        batch = self._next_batch
        self._next_batch = (batch + 1) % len(self.inputs.batches)
        return batch

    # -------------------------------------------------------------- phases

    def timed_set_up(self) -> None:
        """One set-up, timed; the previous inputs are freed before the clock starts."""
        self.inputs = None
        gc.collect()
        t0 = time.perf_counter()
        self.set_up()
        self.setup_s.append(time.perf_counter() - t0)

    def set_up(self) -> None:
        """Generate the inputs from the seed."""
        wl = self.wl
        # images come from per-image random substreams, so the first k images
        # of a class are the same whatever the spec's images_per_class
        spec = oomscene.planted_spec(
            wl.classes, wl.objects, wl.topics,
            max(wl.train_images + wl.heldout_images, wl.target_images),
            shift=oomscene.DomainShift(score_offset=SCORE_OFFSET), seed=self.seed)
        if wl.mode == "soft":
            source, target = generate_soft(spec, wl.patches)
        else:
            source, target = oomscene.generate(spec)
        train = per_class_slice(source, 0, wl.train_images, "train")
        heldout = per_class_slice(source, wl.train_images,
                                  wl.train_images + wl.heldout_images, "heldout")
        target = per_class_slice(target, 0, wl.target_images, "target")
        batches = [
            oomscene.to_text(oomscene.DatasetManifest(
                target.vocabulary, target.classes, target.records[i:i + BATCH],
                target.split_tag, target.mode))
            for i in range(0, len(target.records), BATCH)
        ]
        self.inputs = Inputs(oomscene.to_text(train), batches, heldout)

    def round(self, round_id: int) -> None:
        """One train operation, then one untimed eval operation per target batch."""
        if not self.train(round_id):
            return
        for batch in range(len(self.inputs.batches)):
            self.evaluate(round_id, batch, timed=False)

    # -------------------------------------------------------------- checks

    def check_round_trip(self) -> None:
        """The first trained bundle, in memory, must predict bit-identically to
        the saved bundle the eval operations loaded."""
        self.attempted += 1
        if self.in_memory_output is None or 0 not in self.first_output:
            self._fail("round trip: no bundle was trained and evaluated")
            return
        pred, scores, _ = self.in_memory_output
        saved_pred, saved_scores, _ = self.first_output[0]
        if not (np.array_equal(pred, saved_pred) and np.array_equal(scores, saved_scores)):
            self._fail("round trip: the loaded bundle predicts differently")

    def target_accuracy(self) -> float:
        """Class-mean accuracy over every target batch evaluated."""
        outputs = [self.first_output[b] for b in sorted(self.first_output)]
        if not outputs:
            return 0.0
        y_pred = np.concatenate([pred for pred, _, _ in outputs])
        y_true = np.concatenate([labels for _, _, labels in outputs])
        return class_mean_accuracy(y_true, y_pred, self.wl.classes)

    def heldout_accuracy(self) -> float:
        """Class-mean accuracy of the saved bundle on held-out source images."""
        self.attempted += 1
        try:
            bundle = oomscene.load_bundle(self.bundle_path)
            pred, _, y_true = self._evaluate.evaluate_bundle(bundle, self.inputs.heldout)
        except (oomscene.PipelineError, OSError) as exc:
            self._fail(f"held-out: {exc}")
            return 0.0
        return class_mean_accuracy(y_true, pred, self.wl.classes)


def _timed_window(bench: Bench, seconds: float) -> None:
    """Trains, evals and set-ups, each kept to its share of the window.

    A train starts only if a train of median length ends before the deadline.
    After the deadline, evals continue until MIN_EVAL_SAMPLES are timed.
    """
    deadline = time.perf_counter() + seconds
    spent = dict.fromkeys(SHARES, 0.0)
    op = 0
    while True:
        now = time.perf_counter()
        if not bench.train_s:
            activity = "train"  # the first train gives the evals a bundle
        elif now < deadline:
            fits = now + median(bench.train_s) <= deadline
            activity = min((a for a in SHARES if fits or a != "train"),
                           key=lambda a: spent[a] / SHARES[a])
        elif len(bench.eval_s) < MIN_EVAL_SAMPLES:
            activity = "eval"
        else:
            break
        if activity == "train":
            if not bench.train(op):
                break
            if not bench.warm_until:
                bench.warm_until = time.perf_counter() + WARMUP_S
        elif activity == "eval":
            bench.evaluate(op, bench.next_batch())
        else:
            bench.timed_set_up()
        spent[activity] += time.perf_counter() - now
        op += 1


def _traced_rounds(bench: Bench, seconds: float) -> dict:
    """Alternate untraced and traced rounds; returns round times keyed by traced."""
    start = time.perf_counter()
    times = {False: [], True: []}
    round_id = 0
    while True:
        traced = round_id % 2 == 1
        if traced:
            bench.tracer.install()
        t0 = time.perf_counter()
        bench.round(round_id)
        times[traced].append(time.perf_counter() - t0)
        bench.tracer.uninstall()
        round_id += 1
        if time.perf_counter() - start >= seconds and all(times.values()):
            break
    return times


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> dict:
    """Run one workload; returns the result record (metrics with their samples)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
    tracer = Tracer() if trace else None
    try:
        bench = Bench(workload, seed, workdir, tracer)
        bench.timed_set_up()
        if trace:
            round_times = _traced_rounds(bench, seconds)
        else:
            _timed_window(bench, seconds)
        bench.check_round_trip()
        heldout_acc = bench.heldout_accuracy()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = bench.eval_s
    extra = {"target_acc": bench.target_accuracy(), "heldout_acc": heldout_acc,
             "error_rate": bench.failed / max(bench.attempted, 1)}
    if not trace:
        # Reported, not gated: the median follows the share of the run the
        # host spent in its slow state, which differs from run to run.
        extra["train_s"] = median(bench.train_s)
        extra["eval_img_per_s"] = median([BATCH / t for t in lat])
        extra["eval_batch_p50_ms"] = 1e3 * median(lat)
    if trace:
        metrics = layer_metrics(tracer.spans, tracer.round_of)
        metrics["trace.overhead_frac"] = (
            median(round_times[True]) / median(round_times[False]), "ratio")
        samples = {"rounds_traced": round_times[True],
                   "rounds_untraced": round_times[False]}
    else:
        metrics = {
            "setup_s": (median(bench.setup_s), "s"),
            # the slowest of the run's few long trains, for the same reason
            "train_max_s": (max(bench.train_s, default=0.0), "s"),
            "eval_batch_p90_ms": (1e3 * p90(lat), "ms"),
            "heldout_acc": (heldout_acc, "frac"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "success_rate": (1.0 - extra["error_rate"], "frac"),
        }
        samples = {"setup_s": bench.setup_s, "train_s": bench.train_s, "eval_s": lat}
    return {
        "attempted": bench.attempted,
        "failed": bench.failed,
        "errors": bench.errors[:20],
        "extra": extra,
        "metrics": metrics,
        "samples": samples,
        "spans": tracer.to_json() if tracer is not None else None,
    }
