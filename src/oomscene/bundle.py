"""Pipeline configuration and single-file model bundles.

A bundle keeps every artifact frozen at training time (occurrence/posterior
tensors, object selection, optional PCA/codebook, topic model, ensemble, and
the config snapshot) so evaluation on a new domain never re-fits anything.
Bundle and descriptor files are versioned binaries with a magic header.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .descriptor_hard import DEFAULT_LEVELS, PyramidLayout, descriptor_length
from .descriptor_soft import PcaTransform, VladCodebook
from .ensemble import SgdConfig, TopicEnsemble
from .errors import CompatibilityError, FormatError
from .ingest import HARD, SOFT, ObjectVocabulary, SceneClassSet
from .occurrence import (
    DiscriminantSelection,
    OccurrenceModel,
    PosteriorModel,
    ThresholdGrid,
)
from .topics import KMeansModel

BUNDLE_MAGIC = b"OOMSCENE"
BUNDLE_VERSION = 1
DESC_MAGIC = b"OOMSDESC"
DESC_VERSION = 1

# published operating points: discriminant object counts per detection mode
PROFILES = {
    "snapstore": {HARD: 140, SOFT: 300},
    "mit67": {HARD: 200, SOFT: 500},
}
DEFAULT_TOPIC_COUNT = 5
DEFAULT_PCA_DIM = 500
DEFAULT_FOLDS = 5


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the pipeline, with the snapstore hard-mode defaults."""

    mode: str = HARD
    theta_min: float = 0.0
    theta_max: float = 1.0
    delta_theta: float = 0.05
    prior: str = "uniform"          # or "empirical"
    fallback: str = "prior"         # or "last-valid"
    object_count: int = PROFILES["snapstore"][HARD]
    phi_aggregation: str = "max"    # or "mean"
    pyramid: tuple[tuple[int, int], ...] = DEFAULT_LEVELS
    pca_dim: int = DEFAULT_PCA_DIM
    codebook_size: int = 100
    topic_count: int = DEFAULT_TOPIC_COUNT
    sgd_lambdas: tuple[float, ...] = (1e-5, 1e-4, 1e-3)
    sgd_eta0s: tuple[float, ...] = (0.1, 1.0)
    sgd_epochs: int = 30
    folds: int = DEFAULT_FOLDS
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (HARD, SOFT):
            raise ValueError(f"mode must be 'hard' or 'soft', got {self.mode!r}")
        object.__setattr__(self, "pyramid",
                           tuple((int(r), int(c)) for r, c in self.pyramid))
        object.__setattr__(self, "sgd_lambdas", tuple(float(v) for v in self.sgd_lambdas))
        object.__setattr__(self, "sgd_eta0s", tuple(float(v) for v in self.sgd_eta0s))

    def threshold_grid(self) -> ThresholdGrid:
        return ThresholdGrid(self.theta_min, self.theta_max, self.delta_theta)

    def pyramid_layout(self) -> PyramidLayout:
        return PyramidLayout(self.pyramid)

    def sgd_grid(self) -> list[SgdConfig]:
        return [
            SgdConfig(lam=lam, eta0=eta0, epochs=self.sgd_epochs, seed=self.seed)
            for lam in self.sgd_lambdas
            for eta0 in self.sgd_eta0s
        ]

    def with_profile(self, profile: str) -> "PipelineConfig":
        try:
            count = PROFILES[profile][self.mode]
        except KeyError:
            raise ValueError(f"unknown profile {profile!r}") from None
        return replace(self, object_count=count)


_TUPLE_INT_PAIR_FIELDS = {"pyramid"}
_TUPLE_FLOAT_FIELDS = {"sgd_lambdas", "sgd_eta0s"}


def _parse_config_value(name: str, text: str, target_type):
    text = text.strip()
    if name in _TUPLE_INT_PAIR_FIELDS:
        levels = []
        for part in text.split(","):
            r, _, c = part.strip().partition("x")
            levels.append((int(r), int(c)))
        return tuple(levels)
    if name in _TUPLE_FLOAT_FIELDS:
        return tuple(float(p) for p in text.split(","))
    if target_type is int:
        return int(text)
    if target_type is float:
        return float(text)
    return text


def config_from_pairs(pairs, base: Optional[PipelineConfig] = None) -> PipelineConfig:
    """Apply 'key=value' strings over a base config."""
    cfg = base if base is not None else PipelineConfig()
    known = {f.name for f in fields(PipelineConfig)}
    defaults = PipelineConfig()
    updates = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"config entry {pair!r} is not key=value")
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        updates[key] = _parse_config_value(key, value, type(getattr(defaults, key)))
    return replace(cfg, **updates)


def config_from_file(path, base: Optional[PipelineConfig] = None) -> PipelineConfig:
    """Flat key=value config file; blank lines and '#' comments are skipped."""
    pairs = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pairs.append(line)
    return config_from_pairs(pairs, base=base)


@dataclass(eq=False)
class ModelBundle:
    config: PipelineConfig
    vocabulary: ObjectVocabulary
    classes: SceneClassSet
    occurrence: OccurrenceModel
    posterior: PosteriorModel
    layout: PyramidLayout
    selection: Optional[DiscriminantSelection] = None
    pca: Optional[PcaTransform] = None
    codebook: Optional[VladCodebook] = None
    topics: Optional[KMeansModel] = None
    ensemble: Optional[TopicEnsemble] = None

    def validate(self) -> None:
        n_obj, n_cls = len(self.vocabulary), len(self.classes)
        if self.occurrence.probs.shape[:2] != (n_obj, n_cls):
            raise CompatibilityError("occurrence tensor does not match the vocabulary")
        if self.posterior.posteriors.shape != self.occurrence.probs.shape:
            raise CompatibilityError("posterior tensor does not match the occurrence model")
        if self.selection is not None:
            if any(o >= n_obj for o in self.selection.selected):
                raise CompatibilityError("selection references objects outside the vocabulary")
        if self.ensemble is not None:
            want = self.descriptor_dim()
            if self.ensemble.dim != want:
                raise CompatibilityError(
                    f"ensemble dimension {self.ensemble.dim} does not match the "
                    f"descriptor length {want}"
                )
        if self.topics is not None and self.ensemble is not None:
            if self.topics.dim != self.ensemble.dim:
                raise CompatibilityError("topic model and ensemble dimensions differ")

    def descriptor_dim(self) -> int:
        if self.config.mode == SOFT:
            if self.pca is None or self.codebook is None:
                raise CompatibilityError("soft-mode bundle is missing PCA or codebook")
            return self.codebook.size * self.pca.out_dim
        if self.selection is None:
            raise CompatibilityError("bundle has no object selection yet")
        return descriptor_length(len(self.selection.selected), len(self.classes), self.layout)


def save_bundle(bundle: ModelBundle, path) -> None:
    bundle.validate()
    payload = pickle.dumps(bundle, protocol=4)
    with open(path, "wb") as fh:
        fh.write(BUNDLE_MAGIC)
        fh.write(struct.pack(">H", BUNDLE_VERSION))
        fh.write(payload)


def _unpack(fmt: str, data: bytes, off: int, path, field: str):
    """One big-endian header field at data[off:]; returns (value, next offset)."""
    size = struct.calcsize(fmt)
    if len(data) < off + size:
        raise FormatError(f"{path}: file ends inside the {field} field")
    return struct.unpack_from(fmt, data, off)[0], off + size


def _check_preamble(data: bytes, path, magic: bytes, version: int, kind: str) -> int:
    """Validate magic and version; returns the offset just past them."""
    if data[: len(magic)] != magic:
        raise FormatError(f"{path}: not a {kind} (bad magic)")
    found, off = _unpack(">H", data, len(magic), path, "version")
    if found != version:
        raise FormatError(f"{path}: unsupported {kind} version {found}")
    return off


def load_bundle(path) -> ModelBundle:
    data = Path(path).read_bytes()
    off = _check_preamble(data, path, BUNDLE_MAGIC, BUNDLE_VERSION, "model bundle")
    bundle = pickle.loads(data[off:])
    bundle.validate()
    return bundle


def selection_hash(vocabulary: ObjectVocabulary, selection: DiscriminantSelection) -> str:
    names = ",".join(vocabulary.names[i] for i in selection.selected)
    return hashlib.sha256(names.encode("utf-8")).hexdigest()


def write_descriptor_file(path, matrix: np.ndarray, image_ids, layout: PyramidLayout,
                          sel_hash: str) -> None:
    """Binary descriptor matrix: magic, version, JSON header, float64 rows."""
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
    header = json.dumps(
        {
            "rows": int(matrix.shape[0]),
            "cols": int(matrix.shape[1]),
            "layout": [list(level) for level in layout.levels],
            "selection_sha256": sel_hash,
            "image_ids": list(image_ids),
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(DESC_MAGIC)
        fh.write(struct.pack(">H", DESC_VERSION))
        fh.write(struct.pack(">I", len(header)))
        fh.write(header)
        fh.write(matrix.tobytes())


def read_descriptor_file(path):
    """Returns (matrix, header dict)."""
    data = Path(path).read_bytes()
    off = _check_preamble(data, path, DESC_MAGIC, DESC_VERSION, "descriptor file")
    hlen, off = _unpack(">I", data, off, path, "header length")
    if len(data) < off + hlen:
        raise FormatError(f"{path}: file ends inside the header field")
    try:
        header = json.loads(data[off : off + hlen].decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: header field is not JSON ({exc})") from None
    off += hlen
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header field is not a JSON object")
    for key in ("rows", "cols"):
        if not isinstance(header.get(key), int) or header[key] < 0:
            raise FormatError(f"{path}: header field {key!r} is not a count")
    want = header["rows"] * header["cols"] * 8
    if len(data) - off != want:
        raise FormatError(f"{path}: payload field has {len(data) - off} bytes, "
                          f"rows x cols needs {want}")
    matrix = np.frombuffer(data[off:], dtype=np.float64).reshape(
        header["rows"], header["cols"]
    )
    return matrix, header
