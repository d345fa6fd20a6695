"""Pipeline configuration and single-file model bundles.

A bundle keeps every artifact frozen at training time (occurrence/posterior
tensors, object selection, optional PCA/codebook, topic model, ensemble, and
the config snapshot) so evaluation on a new domain never re-fits anything.
Bundle and descriptor files share one container (README, "Bundle format"):
magic, version, header length, a JSON header listing the arrays' dtypes and
shapes, then the raw arrays, each 8-byte aligned.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, fields, replace
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .descriptor_hard import DEFAULT_LEVELS, PyramidLayout, descriptor_length
from .descriptor_soft import PcaTransform, VladCodebook
from .ensemble import SgdConfig, TopicEnsemble
from .errors import CompatibilityError, FormatError, ParseError
from .ingest import HARD, SOFT, ObjectVocabulary, SceneClassSet, read_utf8
from .occurrence import (
    ClassPrior,
    DiscriminantSelection,
    OccurrenceModel,
    PosteriorModel,
    ThresholdGrid,
)
from .topics import KMeansModel

BUNDLE_MAGIC = b"OOMSCENE"
BUNDLE_VERSION = 5
DESC_MAGIC = b"OOMSDESC"
DESC_VERSION = 2
# the array dtypes a container holds, as numpy spells them
_DTYPES = {"<f8": np.dtype("<f8"), "|b1": np.dtype("|b1")}

# published operating points: discriminant object counts per detection mode
PROFILES = {
    "snapstore": {HARD: 140, SOFT: 300},
    "mit67": {HARD: 200, SOFT: 500},
}
DEFAULT_TOPIC_COUNT = 5
DEFAULT_PCA_DIM = 500
DEFAULT_FOLDS = 5
# training time grows linearly in the epoch count: 333 times the default of
# 30 keeps a mistyped count from running without end
_MAX_SGD_EPOCHS = 10_000


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the pipeline, with the snapstore hard-mode defaults."""

    mode: str = HARD
    theta_min: float = 0.0
    theta_max: float = 1.0
    delta_theta: float = 0.05
    prior: str = "uniform"
    fallback: str = "prior"
    object_count: int = PROFILES["snapstore"][HARD]
    phi_aggregation: str = "max"
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
        for name in ("theta_min", "theta_max", "delta_theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "pyramid",
                           tuple((int(r), int(c)) for r, c in self.pyramid))
        object.__setattr__(self, "sgd_lambdas", tuple(float(v) for v in self.sgd_lambdas))
        object.__setattr__(self, "sgd_eta0s", tuple(float(v) for v in self.sgd_eta0s))
        for name, known in (("mode", (HARD, SOFT)), ("prior", ("uniform", "empirical")),
                            ("fallback", ("prior", "last-valid")),
                            ("phi_aggregation", ("max", "mean"))):
            if getattr(self, name) not in known:
                raise ValueError(f"{name} must be one of {known}, got {getattr(self, name)!r}")
        for name in ("object_count", "pca_dim", "codebook_size", "topic_count",
                     "sgd_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.sgd_epochs > _MAX_SGD_EPOCHS:
            raise ValueError(f"sgd_epochs must be at most {_MAX_SGD_EPOCHS}, "
                             f"got {self.sgd_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.sgd_lambdas or not self.sgd_eta0s:
            raise ValueError("sgd_lambdas and sgd_eta0s each need at least one value")
        # the grid's, the layout's and the SGD entries' own checks
        _naming_keys(self.threshold_grid, "theta_min", "theta_max", "delta_theta")
        _naming_keys(self.pyramid_layout, "pyramid")
        grid = _naming_keys(self.sgd_grid, "sgd_lambdas", "sgd_eta0s")
        if len(grid) > 1 and self.folds < 2:
            raise ValueError(f"folds must be at least 2 to choose among grid entries, "
                             f"got {self.folds}")

    def threshold_grid(self) -> ThresholdGrid:
        return ThresholdGrid(self.theta_min, self.theta_max, self.delta_theta)

    def pyramid_layout(self) -> PyramidLayout:
        return PyramidLayout(self.pyramid)

    def sgd_grid(self) -> list[SgdConfig]:
        return [SgdConfig(lam, eta0) for lam in self.sgd_lambdas for eta0 in self.sgd_eta0s]

    def with_profile(self, profile: str) -> "PipelineConfig":
        try:
            count = PROFILES[profile][self.mode]
        except KeyError:
            raise ValueError(f"unknown profile {profile!r}") from None
        return replace(self, object_count=count)


def _naming_keys(build, *keys):
    """build(), a ValueError it raises re-raised naming the config keys
    that build's values come from, as the parse step names its key."""
    try:
        return build()
    except ValueError as exc:
        named = ", ".join(map(repr, keys))
        raise ValueError(f"config key{'s' if len(keys) > 1 else ''} {named}: {exc}") from None


def _parse_config_value(text: str, hint):
    """A config value's text read as the type its field declares: a
    ``tuple[X, ...]`` is comma-separated, a ``tuple[int, int]`` is ``RxC``."""
    text = text.strip()
    if get_origin(hint) is not tuple:
        return hint(text)
    args = get_args(hint)
    if args[1:] == (Ellipsis,):
        return tuple(_parse_config_value(part, args[0]) for part in text.split(","))
    parts = text.split("x")
    if len(parts) != len(args):
        raise ValueError(f"{text!r} is not {len(args)} values joined by 'x'")
    return tuple(map(_parse_config_value, parts, args))


def config_from_pairs(pairs) -> PipelineConfig:
    """The default config with 'key=value' strings applied; a later pair of a
    key overrides an earlier one, and the result is checked as a whole."""
    hints = _BUNDLE_TYPES["PipelineConfig"][1]
    updates = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"config entry {pair!r} is not key=value")
        if key not in hints:
            raise ValueError(f"unknown config key {key!r}")
        try:
            updates[key] = _parse_config_value(value, hints[key])
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: bad value {value.strip()!r} "
                             f"({exc})") from None
    return PipelineConfig(**updates)


def config_file_pairs(path) -> list[str]:
    """The key=value lines of a flat config file; blank lines and '#'
    comments are skipped.  A file that is not UTF-8 raises a ValueError
    naming the file and the line of its first bad byte."""
    try:
        text = read_utf8(path)
    except ParseError as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    lines = (raw.strip() for raw in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


@dataclass(frozen=True, eq=False)
class ModelBundle:
    config: PipelineConfig
    vocabulary: ObjectVocabulary
    classes: SceneClassSet
    occurrence: OccurrenceModel
    posterior: PosteriorModel
    selection: Optional[DiscriminantSelection] = None
    pca: Optional[PcaTransform] = None
    codebook: Optional[VladCodebook] = None
    topics: Optional[KMeansModel] = None
    ensemble: Optional[TopicEnsemble] = None

    def validate(self) -> None:
        """Check that the components' shapes agree with each other."""
        n_obj, n_cls = len(self.vocabulary), len(self.classes)
        post = self.posterior
        # a tensor counted on one grid and looked up on another predicts wrongly
        if not self.occurrence.grid == post.grid == self.config.threshold_grid():
            raise CompatibilityError("occurrence, posterior and config threshold "
                                     "grids differ")
        if self.occurrence.probs.shape[:2] != (n_obj, n_cls):
            raise CompatibilityError("occurrence tensor does not match the vocabulary")
        if post.posteriors.shape != self.occurrence.probs.shape:
            raise CompatibilityError("posterior tensor does not match the occurrence model")
        if post.posteriors.shape[2:] != (len(post.grid),):
            raise CompatibilityError("posterior tensor does not match its threshold grid")
        if post.fallback_mask.shape != (n_obj, len(post.grid)):
            raise CompatibilityError("fallback mask does not match the posterior tensor")
        if post.prior.weights.size != n_cls:
            raise CompatibilityError("class prior does not match the classes")
        if self.selection is not None:
            selected = self.selection.selected
            if any(not 0 <= o < n_obj for o in selected):
                raise CompatibilityError("selection references objects outside the vocabulary")
            if len(set(selected)) != len(selected):
                twice = next(o for i, o in enumerate(selected) if o in selected[:i])
                raise CompatibilityError(f"selection lists object {twice} twice")
        if self.pca is not None:
            pca = self.pca
            if pca.mean.size != sum(q.shape[0] for q in pca.bases):
                raise CompatibilityError("PCA mean does not match its block bases")
            if pca.mixing.shape[0] != sum(q.shape[1] for q in pca.bases):
                raise CompatibilityError("PCA mixing does not match its block bases")
            if (self.selection is not None
                    and [q.shape[0] for q in pca.bases] != [n_cls] * len(self.selection)):
                raise CompatibilityError(f"PCA input is not one block per selected "
                                         f"object, each {n_cls} columns wide")
        if self.codebook is not None:
            if self.pca is None or self.codebook.centers.shape[1] != self.pca.out_dim:
                raise CompatibilityError("codebook dimension does not match the PCA output")
        if self.ensemble is not None:
            ens = self.ensemble
            if ens.biases.shape != ens.weights.shape[:2]:
                raise CompatibilityError("ensemble biases do not match its weights")
            if ens.n_classes != n_cls:
                raise CompatibilityError("ensemble classes do not match the classes")
            if not len(ens.topic_sizes) == len(ens.configs) == ens.n_topics:
                raise CompatibilityError("ensemble topic sizes or configs do not match "
                                         "its topics")
            want = self.descriptor_dim()
            if ens.dim != want:
                raise CompatibilityError(
                    f"ensemble dimension {ens.dim} does not match the "
                    f"descriptor length {want}"
                )
            if self.topics is not None and self.topics.centroids.shape[1:] != (ens.dim,):
                raise CompatibilityError("topic model and ensemble dimensions differ")

    def descriptor_dim(self) -> int:
        if self.config.mode == SOFT and (self.pca is None or self.codebook is None):
            raise CompatibilityError("soft-mode bundle is missing PCA or codebook; run train")
        if self.selection is None:
            raise CompatibilityError("bundle has no object selection; run select-objects")
        if self.config.mode == SOFT:
            return self.codebook.size * self.pca.out_dim
        return descriptor_length(len(self.selection.selected), len(self.classes),
                                 self.config.pyramid_layout())


# ------------------------------------------------------------- container

def _write_container(path, magic: bytes, version: int, header: dict, arrays) -> None:
    """Write header and arrays in the container layout (module docstring)."""
    specs = [{"dtype": a.dtype.str, "shape": list(a.shape)} for a in arrays]
    text = json.dumps({**header, "arrays": specs}, separators=(",", ":")).encode("utf-8")
    text += b" " * (-(len(magic) + 6 + len(text)) % 8)
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(">HI", version, len(text)) + text)
        for a in arrays:
            # from the array's own buffer: tobytes() would copy it whole
            fh.write(memoryview(np.ascontiguousarray(a).reshape(-1)).cast("B"))
            fh.write(bytes(-a.nbytes % 8))


def _unpack(fmt: str, data, off: int, path, field: str):
    """One big-endian header field at data[off:]; returns (value, next offset)."""
    size = struct.calcsize(fmt)
    if len(data) < off + size:
        raise FormatError(f"{path}: file ends inside the {field} field")
    return struct.unpack_from(fmt, data, off)[0], off + size


def _read_container(path, magic: bytes, version: int, kind: str):
    """Returns (header without "arrays", arrays).

    The file is read once; the arrays are views of that buffer.  Every size
    is checked against the file length before any view is made.
    """
    buf = np.fromfile(path, dtype=np.uint8)
    if buf[: len(magic)].tobytes() != magic:
        raise FormatError(f"{path}: not a {kind} (bad magic)")
    found, off = _unpack(">H", buf, len(magic), path, "version")
    if found != version:
        raise FormatError(f"{path}: version field holds {found}, this reader reads "
                          f"{kind} version {version}")
    hlen, off = _unpack(">I", buf, off, path, "header length")
    if len(buf) < off + hlen:
        raise FormatError(f"{path}: file ends inside the header field")
    try:
        header = json.loads(buf[off : off + hlen].tobytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise FormatError(f"{path}: header field is not JSON ({exc})") from None
    off += hlen
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header field is not a JSON object")
    specs = header.pop("arrays", None)
    if not isinstance(specs, list):
        raise FormatError(f"{path}: header field 'arrays' is not a list")
    spans, end = [], off
    for i, spec in enumerate(specs):
        dtype = spec.get("dtype") if isinstance(spec, dict) else None
        shape = spec.get("shape") if isinstance(spec, dict) else None
        if (not isinstance(dtype, str) or dtype not in _DTYPES
                or not isinstance(shape, list)
                or not all(type(n) is int and n >= 0 for n in shape)):
            raise FormatError(f"{path}: header field 'arrays[{i}]' is not a "
                              f"{' or '.join(_DTYPES)} dtype with a shape")
        nbytes = math.prod(shape) * _DTYPES[dtype].itemsize
        spans.append((end, nbytes, _DTYPES[dtype], shape))
        end += nbytes + (-nbytes % 8)
    if end != len(buf):
        raise FormatError(f"{path}: payload field has {len(buf) - off} bytes, "
                          f"the header's arrays need {end - off}")
    arrays = [buf[start : start + n].view(dt).reshape(shape) for start, n, dt, shape in spans]
    if any(a.dtype.kind == "b" and a.view(np.uint8).max(initial=0) > 1 for a in arrays):
        raise FormatError(f"{path}: payload field holds a bool other than 0 or 1")
    return header, arrays


# ------------------------------------------------------------ bundle tree

def _to_tree(value, arrays: list):
    """JSON tree of a bundle value; appends its arrays to ``arrays``.

    A node is a JSON scalar, a JSON list (a tuple), or a one-key object:
    {"array": index} or {"<class>": {field: node}} for a class in
    ``_BUNDLE_TYPES``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        arrays.append(value)
        return {"array": len(arrays) - 1}
    if isinstance(value, tuple):
        return [_to_tree(v, arrays) for v in value]
    name = type(value).__name__
    if name in _BUNDLE_TYPES and _BUNDLE_TYPES[name][0] is type(value):
        return {name: {f.name: _to_tree(getattr(value, f.name), arrays)
                       for f in fields(value)}}
    raise TypeError(f"a bundle cannot hold a {name}")


def _conforms(value, hint) -> bool:
    """Whether a decoded value has the type a dataclass field declares."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_conforms(value, a) for a in args)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[1:] == (Ellipsis,):
            return all(_conforms(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, origin or hint)


def _from_tree(node, arrays, where: str):
    """Rebuild a value from its tree; ``where`` names the field in errors."""
    if isinstance(node, list):
        return tuple(_from_tree(v, arrays, f"{where}[{i}]") for i, v in enumerate(node))
    if not isinstance(node, dict):
        return node
    if len(node) != 1:
        raise FormatError(f"{where} is an object with {len(node)} keys, not one tag")
    (tag, body), = node.items()
    if tag == "array":
        if type(body) is not int or not 0 <= body < len(arrays):
            raise FormatError(f"{where}: array index {body!r} is out of range")
        return arrays[body]
    if tag not in _BUNDLE_TYPES or not isinstance(body, dict):
        raise FormatError(f"{where}: {tag!r} is not a bundle node")
    cls, hints = _BUNDLE_TYPES[tag]
    if set(body) != set(hints):
        raise FormatError(f"{where}: a {tag} has the fields {', '.join(hints)}")
    values = {}
    for name, sub in body.items():
        values[name] = _from_tree(sub, arrays, f"{where}.{name}")
        if not _conforms(values[name], hints[name]):
            raise FormatError(f"{where}.{name} does not hold a {hints[name]}")
        # JSON decodes NaN and Infinity; a tuple's floats are its class's to check
        if hints[name] is float and not -math.inf < values[name] < math.inf:
            raise FormatError(f"{where}.{name} holds {values[name]}, not a finite float")
    try:
        return cls(**values)
    except Exception as exc:  # the constructor's own checks reject forged values
        raise FormatError(f"{where}: {tag} rejects its fields ({exc})") from None


# the classes a bundle is built from, with their fields' declared types
_BUNDLE_TYPES = {
    cls.__name__: (cls, {f.name: get_type_hints(cls)[f.name] for f in fields(cls)})
    for cls in (ModelBundle, PipelineConfig, ObjectVocabulary, SceneClassSet,
                OccurrenceModel, PosteriorModel, ThresholdGrid, ClassPrior,
                DiscriminantSelection, PcaTransform, VladCodebook,
                KMeansModel, TopicEnsemble, SgdConfig)
}


def save_bundle(bundle: ModelBundle, path) -> None:
    bundle.validate()
    arrays = []
    tree = _to_tree(bundle, arrays)
    _write_container(path, BUNDLE_MAGIC, BUNDLE_VERSION, {"bundle": tree}, arrays)


def load_bundle(path) -> ModelBundle:
    header, arrays = _read_container(path, BUNDLE_MAGIC, BUNDLE_VERSION, "model bundle")
    try:
        bundle = _from_tree(header.get("bundle"), arrays, f"{path}: bundle")
    except RecursionError:
        raise FormatError(f"{path}: bundle field nests too deeply") from None
    if not isinstance(bundle, ModelBundle):
        raise FormatError(f"{path}: bundle field holds a {type(bundle).__name__}, "
                          f"not a model bundle")
    bundle.validate()
    return bundle


def selection_hash(vocabulary: ObjectVocabulary, selection: DiscriminantSelection) -> str:
    names = ",".join(vocabulary.names[i] for i in selection.selected)
    return hashlib.sha256(names.encode("utf-8")).hexdigest()


def write_descriptor_file(path, matrix: np.ndarray, image_ids, layout: PyramidLayout,
                          sel_hash: str) -> None:
    """Descriptor matrix as the container's one float64 array; the header
    carries rows, cols, pyramid layout, selection hash and image ids."""
    matrix = np.asarray(matrix, dtype=np.float64)
    header = {
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "layout": [list(level) for level in layout.levels],
        "selection_sha256": sel_hash,
        "image_ids": list(image_ids),
    }
    _write_container(path, DESC_MAGIC, DESC_VERSION, header, [matrix])


def read_descriptor_file(path):
    """Returns (matrix, header dict).  The header's image_ids must be one
    string per row, its layout a pyramid layout and its selection_sha256 a
    lower-case hex SHA-256 digest."""
    header, arrays = _read_container(path, DESC_MAGIC, DESC_VERSION, "descriptor file")
    shape = (header.get("rows"), header.get("cols"))
    for name, n in zip(("rows", "cols"), shape):
        if type(n) is not int:  # bools and floats are JSON non-integers here
            raise FormatError(f"{path}: {name} field is not an integer")
    if len(arrays) != 1 or arrays[0].dtype.kind != "f" or arrays[0].shape != shape:
        raise FormatError(f"{path}: arrays field does not hold one float64 matrix "
                          f"of rows x cols")
    ids = header.get("image_ids")
    if not (isinstance(ids, list) and len(ids) == len(arrays[0])
            and all(isinstance(i, str) for i in ids)):
        raise FormatError(f"{path}: image_ids field is not a list of {len(arrays[0])} "
                          f"strings, one per row")
    try:
        layout = header.get("layout")
        # PyramidLayout would convert a bool or a float with int()
        if not all(type(n) is int for level in layout for n in level):
            raise TypeError("an entry is not an integer")
        PyramidLayout(layout)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: layout field is not a pyramid layout ({exc})") from None
    digest = header.get("selection_sha256")
    if not (isinstance(digest, str) and len(digest) == 64
            and set(digest) <= set("0123456789abcdef")):
        raise FormatError(f"{path}: selection_sha256 field is not 64 lower-case "
                          f"hex characters")
    return arrays[0], header
