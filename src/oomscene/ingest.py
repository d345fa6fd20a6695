"""Dataset ingestion: vocabularies, detection records, and the manifest file format.

A manifest file is UTF-8 and line-oriented.  It starts with header lines

    #vocab <object_name> <object_name> ...
    #classes <class_name> <class_name> ...
    #mode hard|soft
    #split <tag>            (optional; defaults to the file stem)

each at most once and before the first record, followed by
blank-line-separated records.  Each record is one

    img <image_id> <class_name|?> [domain=<tag>]

line followed by detection lines, either

    det <object_name> <score> <x0> <y0> <x1> <y1>      (hard mode)
    patch <patch_id> <s_1> ... <s_n>                   (soft mode, n = vocabulary size)

Boxes are normalized to [0, 1] x [0, 1].  `?` marks an unlabeled image.
Other lines starting with `#` are comments.  No model math lives here;
manifests are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    ParseError,
    VocabularyError,
)

HARD = "hard"
SOFT = "soft"
UNLABELED_MARK = "?"
_HEADERS = ("#vocab", "#classes", "#mode", "#split")


def _check_names(names, what):
    if not names:
        raise FormatError(f"{what} is empty")
    seen = set()
    for n in names:
        if not n or any(ch.isspace() for ch in n):
            raise FormatError(f"{what} name {n!r} is empty or contains whitespace")
        if n.startswith("#") or n == UNLABELED_MARK:
            raise FormatError(f"{what} name {n!r} is reserved")
        if n in seen:
            raise FormatError(f"duplicate {what} name {n!r}")
        seen.add(n)


@dataclass(frozen=True)
class ObjectVocabulary:
    """Ordered object-category names; index positions are stable for a run."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        _check_names(names, "object vocabulary")
        object.__setattr__(self, "_lookup", {n: i for i, n in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._lookup[name]
        except KeyError:
            raise VocabularyError(f"unknown object name {name!r}") from None


@dataclass(frozen=True)
class SceneClassSet:
    """Ordered scene-class names."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        _check_names(names, "scene class set")
        object.__setattr__(self, "_lookup", {n: i for i, n in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._lookup[name]
        except KeyError:
            raise VocabularyError(f"unknown scene class name {name!r}") from None


@dataclass(frozen=True)
class HardDetection:
    """One detector hit: object index, confidence score, normalized box."""

    object_index: int
    score: float
    box: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "box", tuple(float(v) for v in self.box))
        object.__setattr__(self, "score", float(self.score))
        x0, y0, x1, y1 = self.box
        if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
            raise FormatError(
                f"box {self.box} is not normalized (need 0 <= x0 < x1 <= 1, 0 <= y0 < y1 <= 1)"
            )
        if self.object_index < 0:
            raise FormatError("object index must be non-negative")
        if not math.isfinite(self.score):
            raise FormatError("detection score must be finite")


@dataclass(frozen=True, eq=False)
class SoftPatch:
    """Per-patch confidence vector covering the whole object vocabulary."""

    patch_id: int
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        if scores.ndim != 1:
            raise FormatError("patch scores must be a flat vector")
        if not np.all(np.isfinite(scores)):
            raise FormatError("patch scores must be finite")


@dataclass(frozen=True, eq=False)
class ImageRecord:
    """One image: id, optional class label, and its detections (one variant only)."""

    image_id: str
    scene_class: Optional[int]
    detections: tuple
    mode: str
    domain_tag: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))
        if self.mode not in (HARD, SOFT):
            raise FormatError(f"unknown record mode {self.mode!r}")
        want = HardDetection if self.mode == HARD else SoftPatch
        for det in self.detections:
            if not isinstance(det, want):
                raise FormatError(
                    f"record {self.image_id!r} mixes hard and soft detections"
                )


@dataclass(frozen=True, eq=False)
class DatasetManifest:
    """A validated, immutable collection of image records plus the name spaces."""

    vocabulary: ObjectVocabulary
    classes: SceneClassSet
    records: tuple[ImageRecord, ...]
    split_tag: str
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.mode not in (HARD, SOFT):
            raise FormatError(f"unknown manifest mode {self.mode!r}")
        if not self.records:
            raise FormatError("empty manifest")
        n_obj, n_cls = len(self.vocabulary), len(self.classes)
        for rec in self.records:
            if rec.mode != self.mode:
                raise FormatError(
                    f"record {rec.image_id!r} is {rec.mode}-mode in a {self.mode} manifest"
                )
            if rec.scene_class is not None and not (0 <= rec.scene_class < n_cls):
                raise FormatError(
                    f"record {rec.image_id!r} has out-of-range class index {rec.scene_class}"
                )
            if self.mode == HARD:
                for det in rec.detections:
                    if det.object_index >= n_obj:
                        raise FormatError(
                            f"record {rec.image_id!r} references object index "
                            f"{det.object_index} outside the vocabulary"
                        )
            else:
                for patch in rec.detections:
                    if patch.scores.size != n_obj:
                        raise DimensionError(
                            f"record {rec.image_id!r}: patch {patch.patch_id} has "
                            f"{patch.scores.size} scores, expected {n_obj}"
                        )
        # training splits must offer at least one image of every class
        if self.split_tag.startswith("train"):
            present = {r.scene_class for r in self.records if r.scene_class is not None}
            missing = [c for c in range(n_cls) if c not in present]
            if missing:
                names = ", ".join(self.classes.names[c] for c in missing)
                raise FormatError(f"training manifest has no images for class(es): {names}")

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> np.ndarray:
        """Class index per record, -1 where unlabeled."""
        return np.array(
            [r.scene_class if r.scene_class is not None else -1 for r in self.records],
            dtype=int,
        )


def flatten_detections(manifest: DatasetManifest) -> tuple:
    """Every detection of the manifest as flat arrays, in record order.

    Hard manifests give (image, object, score, box): the record index, object
    index and score of each detection and its [n, 4] box.  Soft manifests give
    (image, scores): the record index of each patch and the [n_patches,
    n_objects] score matrix.  A record's detections keep their file order.
    """
    records = manifest.records
    counts = np.fromiter((len(r.detections) for r in records), np.intp, len(records))
    image = np.repeat(np.arange(len(records)), counts)
    dets = [d for r in records for d in r.detections]
    if manifest.mode == SOFT:
        scores = np.array([p.scores for p in dets], dtype=float)
        return image, scores.reshape(len(dets), len(manifest.vocabulary))
    obj = np.fromiter(map(attrgetter("object_index"), dets), np.intp, len(dets))
    score = np.fromiter(map(attrgetter("score"), dets), float, len(dets))
    box = np.fromiter(chain.from_iterable(map(attrgetter("box"), dets)), float,
                      4 * len(dets)).reshape(-1, 4)
    return image, obj, score, box


def max_scores(manifest: DatasetManifest) -> np.ndarray:
    """[n_records, n_objects]: each record's best confidence per object, -inf
    for objects it never detects.

    For soft records the best score over all patches stands in for the
    image-level confidence: one reduction over each record's contiguous rows.
    """
    out = np.full((len(manifest), len(manifest.vocabulary)), -np.inf)
    if manifest.mode == SOFT:
        image, scores = flatten_detections(manifest)
        rows, starts = np.unique(image, return_index=True)
        if rows.size:  # a manifest without patches has no segment to reduce
            out[rows] = np.maximum.reduceat(scores, starts, axis=0)
    else:
        image, obj, score, _ = flatten_detections(manifest)
        np.maximum.at(out, (image, obj), score)
    return out


def _parse_float(token, what, line_no):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not a number", line_no) from None


def parse_manifest_text(text: str, mode: Optional[str] = None,
                        split_tag: str = "manifest") -> DatasetManifest:
    """Parse manifest text; `mode`, when given, must match the `#mode` header."""
    vocab: Optional[ObjectVocabulary] = None
    classes: Optional[SceneClassSet] = None
    file_mode: Optional[str] = None
    split: Optional[str] = None
    records: list[ImageRecord] = []
    cur: Optional[dict] = None
    headers_seen = set()

    def flush():
        nonlocal cur
        if cur is not None:
            records.append(
                ImageRecord(
                    image_id=cur["id"],
                    scene_class=cur["class"],
                    detections=tuple(cur["dets"]),
                    mode=file_mode,
                    domain_tag=cur["domain"],
                )
            )
            cur = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        parts = line.split()
        head = parts[0]
        if head in _HEADERS:
            if records or cur is not None:
                raise ParseError(f"{head} header after the first record", line_no)
            if head in headers_seen:
                raise ParseError(f"repeated {head} header", line_no)
            headers_seen.add(head)
        if head in ("#vocab", "#classes"):
            try:
                if head == "#vocab":
                    vocab = ObjectVocabulary(tuple(parts[1:]))
                else:
                    classes = SceneClassSet(tuple(parts[1:]))
            except FormatError as exc:
                raise ParseError(f"{head} header: {exc}", line_no) from None
        elif head == "#mode":
            if len(parts) != 2 or parts[1] not in (HARD, SOFT):
                raise ParseError("expected '#mode hard' or '#mode soft'", line_no)
            file_mode = parts[1]
        elif head == "#split":
            if len(parts) != 2:
                raise ParseError("expected '#split <tag>'", line_no)
            split = parts[1]
        elif head.startswith("#"):
            continue  # comment
        elif head == "img":
            if vocab is None or classes is None or file_mode is None:
                raise ParseError(
                    "record before #vocab/#classes/#mode headers", line_no
                )
            flush()
            if len(parts) < 3 or len(parts) > 4:
                raise ParseError(
                    "expected 'img <id> <class|?> [domain=<tag>]'", line_no
                )
            try:
                class_idx = None if parts[2] == UNLABELED_MARK else classes.index(parts[2])
            except VocabularyError as exc:
                raise VocabularyError(f"line {line_no}: {exc}") from None
            domain = None
            if len(parts) == 4:
                if not parts[3].startswith("domain="):
                    raise ParseError(f"unexpected token {parts[3]!r}", line_no)
                domain = parts[3][len("domain="):]
            cur = {"id": parts[1], "class": class_idx, "domain": domain, "dets": []}
        elif head == "det":
            if cur is None:
                raise ParseError("'det' line outside a record", line_no)
            if file_mode != HARD:
                raise FormatError(
                    f"line {line_no}: 'det' line in a soft manifest (mixed hard/soft)"
                )
            if len(parts) != 7:
                raise ParseError(
                    "expected 'det <object> <score> <x0> <y0> <x1> <y1>'", line_no
                )
            try:
                obj = vocab.index(parts[1])
            except VocabularyError as exc:
                raise VocabularyError(f"line {line_no}: {exc}") from None
            score = _parse_float(parts[2], "score", line_no)
            box = tuple(_parse_float(p, "coordinate", line_no) for p in parts[3:7])
            try:
                cur["dets"].append(HardDetection(obj, score, box))
            except FormatError as exc:
                raise ParseError(str(exc), line_no) from None
        elif head == "patch":
            if cur is None:
                raise ParseError("'patch' line outside a record", line_no)
            if file_mode != SOFT:
                raise FormatError(
                    f"line {line_no}: 'patch' line in a hard manifest (mixed hard/soft)"
                )
            if len(parts) < 2:
                raise ParseError("expected 'patch <id> <s_1> ...'", line_no)
            try:
                patch_id = int(parts[1])
            except ValueError:
                raise ParseError(f"patch id {parts[1]!r} is not an integer", line_no) from None
            scores = np.array(
                [_parse_float(p, "score", line_no) for p in parts[2:]], dtype=float
            )
            if scores.size != len(vocab):
                raise DimensionError(
                    f"line {line_no}: record {cur['id']!r}: patch {patch_id} has "
                    f"{scores.size} scores, expected {len(vocab)}"
                )
            try:
                cur["dets"].append(SoftPatch(patch_id, scores))
            except FormatError as exc:
                raise ParseError(str(exc), line_no) from None
        else:
            raise ParseError(f"unrecognized line starting with {head!r}", line_no)
    flush()

    if vocab is None or classes is None or file_mode is None:
        raise FormatError("manifest is missing #vocab, #classes, or #mode header")
    if mode is not None and mode != file_mode:
        raise FormatError(f"manifest is {file_mode}-mode, expected {mode}")
    if not records:
        raise FormatError("empty manifest")
    return DatasetManifest(
        vocabulary=vocab,
        classes=classes,
        records=tuple(records),
        split_tag=split if split is not None else split_tag,
        mode=file_mode,
    )


def parse_manifest(path, mode: Optional[str] = None) -> DatasetManifest:
    """Parse a manifest file; see the module docstring for the format."""
    p = Path(path)
    return parse_manifest_text(p.read_text(encoding="utf-8"), mode=mode, split_tag=p.stem)


def to_text(manifest: DatasetManifest) -> str:
    """Serialize a manifest back to its file format (parse/serialize round-trips)."""
    lines = [
        "#vocab " + " ".join(manifest.vocabulary.names),
        "#classes " + " ".join(manifest.classes.names),
        "#mode " + manifest.mode,
        "#split " + manifest.split_tag,
        "",
    ]
    for rec in manifest.records:
        cls = (
            UNLABELED_MARK
            if rec.scene_class is None
            else manifest.classes.names[rec.scene_class]
        )
        img = f"img {rec.image_id} {cls}"
        if rec.domain_tag is not None:
            img += f" domain={rec.domain_tag}"
        lines.append(img)
        if rec.mode == HARD:
            for det in rec.detections:
                name = manifest.vocabulary.names[det.object_index]
                x0, y0, x1, y1 = det.box
                lines.append(f"det {name} {det.score!r} {x0!r} {y0!r} {x1!r} {y1!r}")
        else:
            for patch in rec.detections:
                vals = " ".join(repr(float(s)) for s in patch.scores)
                lines.append(f"patch {patch.patch_id} {vals}")
        lines.append("")
    return "\n".join(lines)


def write_manifest(manifest: DatasetManifest, path) -> None:
    Path(path).write_text(to_text(manifest), encoding="utf-8")
