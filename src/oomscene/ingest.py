"""Dataset ingestion: vocabularies, manifests, and the manifest file format.

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
Other lines starting with `#` are comments.  In memory a manifest is a set of
flat arrays (see `DatasetManifest`).  No model math lives here; manifests are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    ParseError,
    PipelineError,
    VocabularyError,
)

HARD = "hard"
SOFT = "soft"
UNLABELED_MARK = "?"
_HEADERS = ("#vocab", "#classes", "#mode", "#split")
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
# the parser converts and checks the numbers of its `det` lines in chunks of
# about this many tokens, which bounds the string objects it holds at once:
# on a 17.8 MB hard text of 159,822 `det` lines, the traced parse peak above
# the text's line list is 23 MB with chunks and 91 MB without
_CHUNK_TOKENS = 1 << 16


def _is_token(value, allow_empty=False) -> bool:
    """True for a string the file format can hold as one token."""
    return isinstance(value, str) and (value.split() == [value]
                                       or (allow_empty and value == ""))


@dataclass(frozen=True)
class _NameSet:
    """Ordered, distinct, one-token names; a name's index is its position.

    A subclass sets only the wording of its messages: `_what` names the set
    and `_item` one of its names.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise FormatError(f"{self._what} is empty")
        lookup = {}
        for n in names:
            if not _is_token(n):
                raise FormatError(f"{self._what} name {n!r} is empty or contains whitespace")
            if n.startswith("#") or n == UNLABELED_MARK:
                raise FormatError(f"{self._what} name {n!r} is reserved")
            if n in lookup:
                raise FormatError(f"duplicate {self._what} name {n!r}")
            lookup[n] = len(lookup)
        object.__setattr__(self, "_lookup", lookup)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._lookup[name]
        except KeyError:
            raise VocabularyError(f"unknown {self._item} name {name!r}") from None


# siblings, not parent and child: a bundle must not pass one off as the other
@dataclass(frozen=True)
class ObjectVocabulary(_NameSet):
    """Ordered object-category names; index positions are stable for a run."""

    _what, _item = "object vocabulary", "object"


@dataclass(frozen=True)
class SceneClassSet(_NameSet):
    """Ordered scene-class names."""

    _what, _item = "scene class set", "scene class"


def _box_fault(box) -> Optional[str]:
    """Why a box is not normalized, or None; `_normalized` is its array form."""
    x0, y0, x1, y1 = box
    if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
        return (f"box {box} is not normalized "
                f"(need 0 <= x0 < x1 <= 1, 0 <= y0 < y1 <= 1)")
    return None


def _normalized(box: np.ndarray) -> np.ndarray:
    """Per row of an [n, 4] box array: 0 <= x0 < x1 <= 1 and 0 <= y0 < y1 <= 1."""
    x0, y0, x1, y1 = box.T
    return (0.0 <= x0) & (x0 < x1) & (x1 <= 1.0) & (0.0 <= y0) & (y0 < y1) & (y1 <= 1.0)


# The record types are plain data: `DatasetManifest` checks what they hold.
@dataclass(frozen=True, slots=True)
class HardDetection:
    """One detector hit: object index, confidence score, normalized box."""

    object_index: int
    score: float
    box: tuple[float, float, float, float]


@dataclass(frozen=True, eq=False, slots=True)
class SoftPatch:
    """Per-patch confidence vector covering the whole object vocabulary."""

    patch_id: int
    scores: np.ndarray


@dataclass(frozen=True, eq=False, slots=True)
class ImageRecord:
    """One image: id, optional class label, and its detections (one variant only)."""

    image_id: str
    scene_class: Optional[int]
    detections: tuple
    mode: str
    domain_tag: Optional[str] = None


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _numbers(values, what, dtype=None) -> np.ndarray:
    """`values` as a new array of `dtype`; without one, as int64, refusing
    any value that is not an integer in the int64 range rather than
    truncating or wrapping it.  A `FormatError` names `what`."""
    try:
        array = np.array(values, dtype=dtype)
        if array.dtype == object:  # say, Python ints beyond int64
            array = np.array(array.tolist())
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{what}: {exc}") from None
    if dtype is not None:
        return array
    kind = array.dtype.kind
    if array.size and not (kind in "bi" or kind == "u" and array.max() <= _INT64_MAX):
        value = next(v for v in array.reshape(-1).tolist()
                     if not (isinstance(v, int) and _INT64_MIN <= v <= _INT64_MAX))
        raise FormatError(f"{what} {value!r} is not a 64-bit integer")
    return array.astype(np.int64, copy=False)


def _rows(values, what, width) -> np.ndarray:
    """`values` as a new float [n, width] array; any empty input is [0, width]."""
    array = _numbers(values, what, float)
    if not array.size:
        return array.reshape(0, width)
    if array.ndim != 2 or array.shape[1] != width:
        raise DimensionError(f"{what} have shape {array.shape}, expected [n, {width}]")
    return array


class DatasetManifest:
    """A validated, immutable manifest stored as flat, read-only arrays.

    Per record, in file order: `image_ids` and `domain_tags` (tuples; a tag
    is None where absent) and `labels` (class index, -1 where unlabeled).
    Per detection, grouped by record in record order, each record's in file
    order: `image`, the record index, and in hard mode `object_index`,
    `score` and the [n, 4] `box`, in soft mode `patch_id` and the
    [n_patches, n_objects] `scores`; the other mode's arrays are None.
    Record i's detections are rows `bounds[i]:bounds[i + 1]`.

    `DatasetManifest(vocabulary, classes, records, split_tag, mode)` builds a
    manifest from `ImageRecord`s and `from_arrays` from the arrays.  Both
    convert; `_set` checks every value, so each rule is stated once.  The
    record constructor checks only what needs the record objects: each
    record's mode, each detection's type and each patch's score width.
    `records` gives the manifest back as `ImageRecord`s, built on first use.
    """

    def __init__(self, vocabulary: ObjectVocabulary, classes: SceneClassSet,
                 records, split_tag: str, mode: str):
        records = tuple(records)
        # any detection passes in another mode, which `_set` refuses
        kind = {HARD: HardDetection, SOFT: SoftPatch}.get(mode, object)
        for rec in records:
            if rec.mode != mode:
                raise FormatError(
                    f"record {rec.image_id!r} is {rec.mode}-mode in a {mode} manifest"
                )
            if not all(map(isinstance, rec.detections, repeat(kind))):
                raise FormatError(f"record {rec.image_id!r} mixes hard and soft detections")
        counts = np.fromiter((len(r.detections) for r in records), np.intp, len(records))
        image = np.repeat(np.arange(len(records)), counts)
        dets = [d for r in records for d in r.detections]
        columns = {}
        if mode == SOFT:
            n_obj = len(vocabulary)
            widths = np.fromiter(map(np.size, map(attrgetter("scores"), dets)), np.intp,
                                 len(dets))
            bad = np.flatnonzero(widths != n_obj)
            if bad.size:
                k = bad[0]
                raise DimensionError(
                    f"record {records[image[k]].image_id!r}: patch {dets[k].patch_id} has "
                    f"{widths[k]} scores, expected {n_obj}"
                )
            columns = dict(patch_id=[p.patch_id for p in dets],
                           scores=[p.scores for p in dets])
        elif mode == HARD:
            columns = dict(object_index=[d.object_index for d in dets],
                           score=[d.score for d in dets], box=[d.box for d in dets])
        self._set(vocabulary, classes, split_tag, mode,
                  tuple(r.image_id for r in records),
                  [-1 if r.scene_class is None else r.scene_class for r in records],
                  tuple(r.domain_tag for r in records), image, **columns)

    @classmethod
    def from_arrays(cls, vocabulary: ObjectVocabulary, classes: SceneClassSet,
                    split_tag: str, mode: str, image_ids, labels, domain_tags, image, *,
                    object_index=None, score=None, box=None, patch_id=None,
                    scores=None) -> "DatasetManifest":
        """A manifest from its arrays (see the class docstring); they are copied."""
        manifest = cls.__new__(cls)
        manifest._set(vocabulary, classes, split_tag, mode, tuple(image_ids), labels,
                      tuple(domain_tags), image, object_index=object_index, score=score,
                      box=box, patch_id=patch_id, scores=scores)
        return manifest

    def _set(self, vocabulary, classes, split_tag, mode, image_ids, labels, domain_tags,
             image, object_index=None, score=None, box=None, patch_id=None, scores=None):
        """Convert and check every value, then store the arrays read-only."""
        if mode not in (HARD, SOFT):
            raise FormatError(f"unknown manifest mode {mode!r}")
        n, n_obj, n_cls = len(image_ids), len(vocabulary), len(classes)
        if not n:
            raise FormatError("empty manifest")
        if not _is_token(split_tag):
            raise FormatError(f"split tag {split_tag!r} is empty or contains whitespace")
        if len(domain_tags) != n:
            raise DimensionError(f"{len(domain_tags)} domain tags for {n} records")
        for i, (rid, tag) in enumerate(zip(image_ids, domain_tags)):
            if not _is_token(rid):
                raise FormatError(f"record {i}: image id {rid!r} is not a non-empty "
                                  f"string without whitespace")
            if tag is not None and not _is_token(tag, allow_empty=True):
                raise FormatError(f"record {rid!r}: domain tag {tag!r} is not a string "
                                  f"without whitespace")
        labels = _numbers(labels, "class index").reshape(-1)
        image = _numbers(image, "record index").reshape(-1)
        if labels.size != n:
            raise DimensionError(f"{labels.size} labels for {n} records")
        bad = np.flatnonzero((labels < -1) | (labels >= n_cls))
        if bad.size:
            raise FormatError(f"record {image_ids[bad[0]]!r} has out-of-range class index "
                              f"{labels[bad[0]]}")
        m = image.size
        if m and (image[0] < 0 or image[-1] >= n or np.any(image[1:] < image[:-1])):
            raise FormatError("detections must be grouped by record, in record order")
        if mode == HARD:
            object_index = _numbers(object_index, "object index").reshape(-1)
            score = _numbers(score, "detection scores", float).reshape(-1)
            box = _rows(box, "boxes", 4)
            if not object_index.size == score.size == len(box) == m:
                raise DimensionError("hard detection arrays differ in length")
            bad = np.flatnonzero((object_index < 0) | (object_index >= n_obj))
            if bad.size:
                raise FormatError(f"record {image_ids[image[bad[0]]]!r} references object "
                                  f"index {object_index[bad[0]]} outside the vocabulary")
            bad = np.flatnonzero(~np.isfinite(score) | ~_normalized(box))
            if bad.size:
                k = bad[0]
                fault = _box_fault(tuple(box[k].tolist())) or "detection score must be finite"
                raise FormatError(f"record {image_ids[image[k]]!r}: {fault}")
            columns = (object_index, score, box, None, None)
        else:
            patch_id = _numbers(patch_id, "patch id").reshape(-1)
            scores = _rows(scores, "patch scores", n_obj)
            if not patch_id.size == len(scores) == m:
                raise DimensionError("soft patch arrays differ in length")
            bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
            if bad.size:
                raise FormatError(f"record {image_ids[image[bad[0]]]!r}: patch scores "
                                  f"must be finite")
            columns = (None, None, None, patch_id, scores)
        object_index, score, box, patch_id, scores = (
            None if a is None else _read_only(a) for a in columns)
        self.__dict__.update(
            vocabulary=vocabulary, classes=classes, split_tag=split_tag, mode=mode,
            image_ids=image_ids, labels=_read_only(labels), domain_tags=domain_tags,
            image=_read_only(image), object_index=object_index, score=score, box=box,
            patch_id=patch_id, scores=scores)

    def __setattr__(self, name, value):
        raise AttributeError(f"DatasetManifest is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.image_ids)

    @cached_property
    def bounds(self) -> np.ndarray:
        """[n_records + 1]: record i's detections are rows bounds[i]:bounds[i + 1]."""
        return _read_only(np.searchsorted(self.image, np.arange(len(self) + 1)))

    def _block(self, start: int, stop: int) -> "DatasetManifest":
        """Records [start, stop) as a manifest whose arrays are views of this
        one's, with `image` rebased to the block.  Nothing is checked again: a
        contiguous range of a checked manifest keeps every `_set` rule."""
        a, b = self.bounds[start], self.bounds[stop]
        dets = {name: None if array is None else array[a:b]
                for name, array in (("object_index", self.object_index),
                                    ("score", self.score), ("box", self.box),
                                    ("patch_id", self.patch_id), ("scores", self.scores))}
        block = DatasetManifest.__new__(DatasetManifest)
        block.__dict__.update(
            vocabulary=self.vocabulary, classes=self.classes, split_tag=self.split_tag,
            mode=self.mode, image_ids=self.image_ids[start:stop],
            labels=self.labels[start:stop], domain_tags=self.domain_tags[start:stop],
            image=_read_only(self.image[a:b] - start), **dets)
        return block

    @cached_property
    def records(self) -> tuple[ImageRecord, ...]:
        """The manifest as `ImageRecord`s, for code that works a record at a time."""
        if self.mode == HARD:
            dets = list(map(HardDetection, self.object_index.tolist(),
                            self.score.tolist(), map(tuple, self.box.tolist())))
        else:
            dets = list(map(SoftPatch, self.patch_id.tolist(), self.scores))
        bounds = self.bounds.tolist()
        return tuple(
            ImageRecord(rid, None if c < 0 else c, tuple(dets[a:b]), self.mode, tag)
            for rid, c, tag, a, b in zip(self.image_ids, self.labels.tolist(),
                                         self.domain_tags, bounds[:-1], bounds[1:]))


def max_scores(manifest: DatasetManifest) -> np.ndarray:
    """[n_records, n_objects]: each record's best confidence per object, -inf
    for objects it never detects.

    For soft records the best score over all patches stands in for the
    image-level confidence: one reduction over each record's contiguous rows.
    """
    out = np.full((len(manifest), len(manifest.vocabulary)), -np.inf)
    if manifest.mode == SOFT:
        rows, starts = np.unique(manifest.image, return_index=True)
        if rows.size:  # a manifest without patches has no segment to reduce
            out[rows] = np.maximum.reduceat(manifest.scores, starts, axis=0)
    else:
        np.maximum.at(out, (manifest.image, manifest.object_index), manifest.score)
    return out


def _parse_float(token, what, line_no):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not a number", line_no) from None


def _floats(tokens) -> np.ndarray:
    """The tokens as floats in one conversion; an unparseable token becomes
    NaN, which flags its line for the token-by-token check."""
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        def value(token):
            try:
                return float(token)
            except ValueError:
                return math.nan
        return np.array([value(t) for t in tokens], dtype=float)


def _det_columns(line_nos, tokens, vocab):
    """(object index, score, box) of the collected `det` lines, whose seven
    tokens each are consecutive in `tokens`.  Raises the fault of the first
    faulty line, as a line-by-line check would."""
    names = tokens[1::7]
    obj = np.fromiter(map(vocab._lookup.get, names, repeat(-1)), np.intp, len(names))
    # the five number columns one after another: [n, 5] after the transpose
    values = _floats(tokens[2::7] + tokens[3::7] + tokens[4::7] + tokens[5::7]
                     + tokens[6::7]).reshape(5, -1).T
    score, box = values[:, 0], values[:, 1:]
    bad = (obj < 0) | ~np.isfinite(score) | ~_normalized(box)
    if bad.any():
        i = int(np.argmax(bad))
        line_no, toks = line_nos[i], tokens[7 * i + 2:7 * i + 7]
        try:
            vocab.index(names[i])
        except VocabularyError as exc:
            raise VocabularyError(f"line {line_no}: {exc}") from None
        score = _parse_float(toks[0], "score", line_no)
        box = tuple(_parse_float(t, "coordinate", line_no) for t in toks[1:])
        raise ParseError(_box_fault(box) or "detection score must be finite", line_no)
    return obj, score, box


def parse_manifest_text(text: str, mode: Optional[str] = None,
                        split_tag: str = "manifest") -> DatasetManifest:
    """Parse manifest text; `mode`, when given, must match the `#mode` header.

    One pass over the lines checks the structure.  Each `patch` line's
    scores are converted and checked where the line is read; the `det`
    lines are collected and their numbers converted one `np.array` call per
    `_CHUNK_TOKENS` tokens and checked as arrays.  Every line-level fault
    names the first faulty line.
    """
    vocab: Optional[ObjectVocabulary] = None
    classes: Optional[SceneClassSet] = None
    file_mode: Optional[str] = None
    split: Optional[str] = None
    headers_seen = set()
    ids, labels, domains, img_lines = [], [], [], []
    # the detection lines: line numbers, as machine ints (a Python int per
    # line would outweigh its parsed columns); patch ids and score rows
    # (soft); the seven tokens of each `det` line since the last check
    det_lines, patch_ids, rows, tokens = array("q"), [], [], []
    checked = []  # per check, the column arrays of its `det` lines
    in_record = False
    fault = None

    def check():
        """Convert and check the `det` lines collected since the last check."""
        checked.append(_det_columns(det_lines[len(det_lines) - len(tokens) // 7:], tokens,
                                    vocab))
        tokens.clear()

    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split()
            if not parts:
                in_record = False
                continue
            head = parts[0]
            if head == "det":
                if not in_record:
                    raise ParseError("'det' line outside a record", line_no)
                if file_mode != HARD:
                    raise FormatError(
                        f"line {line_no}: 'det' line in a soft manifest (mixed hard/soft)"
                    )
                if len(parts) != 7:
                    raise ParseError(
                        "expected 'det <object> <score> <x0> <y0> <x1> <y1>'", line_no
                    )
                det_lines.append(line_no)
                tokens += parts
                if len(tokens) >= _CHUNK_TOKENS:
                    check()
            elif head == "patch":
                if not in_record:
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
                    raise ParseError(f"patch id {parts[1]!r} is not an integer",
                                     line_no) from None
                if not _INT64_MIN <= patch_id <= _INT64_MAX:
                    raise ParseError(f"patch id {parts[1]!r} is not a 64-bit integer",
                                     line_no)
                try:
                    row = np.array(parts[2:], dtype=float)
                except ValueError:
                    row = np.array([_parse_float(t, "score", line_no) for t in parts[2:]])
                if row.size != len(vocab):
                    raise DimensionError(
                        f"line {line_no}: record {ids[-1]!r}: patch {patch_id} has "
                        f"{row.size} scores, expected {len(vocab)}"
                    )
                if not np.isfinite(row).all():
                    raise ParseError("patch scores must be finite", line_no)
                det_lines.append(line_no)
                patch_ids.append(patch_id)
                rows.append(row)
            elif head == "img":
                if vocab is None or classes is None or file_mode is None:
                    raise ParseError(
                        "record before #vocab/#classes/#mode headers", line_no
                    )
                if len(parts) < 3 or len(parts) > 4:
                    raise ParseError(
                        "expected 'img <id> <class|?> [domain=<tag>]'", line_no
                    )
                try:
                    label = -1 if parts[2] == UNLABELED_MARK else classes.index(parts[2])
                except VocabularyError as exc:
                    raise VocabularyError(f"line {line_no}: {exc}") from None
                domain = None
                if len(parts) == 4:
                    if not parts[3].startswith("domain="):
                        raise ParseError(f"unexpected token {parts[3]!r}", line_no)
                    domain = parts[3][len("domain="):]
                ids.append(parts[1])
                labels.append(label)
                domains.append(domain)
                img_lines.append(line_no)
                in_record = True
            elif head in _HEADERS:
                if ids:
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
                elif len(parts) != 2:
                    raise ParseError("expected '#split <tag>'", line_no)
                else:
                    split = parts[1]
            elif head.startswith("#"):
                continue  # comment
            else:
                raise ParseError(f"unrecognized line starting with {head!r}", line_no)
    except PipelineError as exc:
        fault = exc
    if fault is not None:
        if tokens:
            check()  # a fault on an earlier `det` line comes first
        raise fault

    if vocab is None or classes is None or file_mode is None:
        raise FormatError("manifest is missing #vocab, #classes, or #mode header")
    if file_mode == SOFT:
        dets = dict(patch_id=patch_ids, scores=rows)  # stacked once, by `_set`
    else:
        check()
        dets = dict(zip(("object_index", "score", "box"),
                        map(np.concatenate, zip(*checked))))
    if mode is not None and mode != file_mode:
        raise FormatError(f"manifest is {file_mode}-mode, expected {mode}")
    return DatasetManifest.from_arrays(
        vocab, classes, split if split is not None else split_tag, file_mode, ids, labels,
        domains, np.searchsorted(img_lines, det_lines) - 1, **dets)


def read_utf8(path) -> str:
    """The text of a UTF-8 file.  A file that is not UTF-8 raises a
    ParseError naming the line of its first bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line breaks before the bad byte, as str.splitlines counts them
        line_no = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(f"byte {exc.start} is not UTF-8 ({exc.reason})", line_no) from None


def parse_manifest(path, mode: Optional[str] = None) -> DatasetManifest:
    """Parse a manifest file; see the module docstring for the format.

    Without a `#split` header the split tag is the file stem, its whitespace
    runs replaced by `_`.  A file that is not UTF-8 raises a ParseError
    naming the line of its first bad byte.
    """
    p = Path(path)
    return parse_manifest_text(read_utf8(p), mode=mode,
                               split_tag="_".join(p.stem.split()) or "manifest")


def to_text(manifest: DatasetManifest) -> str:
    """Serialize a manifest back to its file format (parse/serialize round-trips)."""
    lines = [
        "#vocab " + " ".join(manifest.vocabulary.names),
        "#classes " + " ".join(manifest.classes.names),
        "#mode " + manifest.mode,
        "#split " + manifest.split_tag,
        "",
    ]
    names, m = manifest.vocabulary.names, manifest
    bounds = m.bounds.tolist()
    for i, (rid, c, tag) in enumerate(zip(m.image_ids, m.labels.tolist(), m.domain_tags)):
        img = f"img {rid} {UNLABELED_MARK if c < 0 else m.classes.names[c]}"
        if tag is not None:
            img += f" domain={tag}"
        lines.append(img)
        # a record at a time, so that only its Python floats exist at once
        dets = slice(bounds[i], bounds[i + 1])
        if m.mode == HARD:
            lines += [f"det {names[o]} {s!r} {x0!r} {y0!r} {x1!r} {y1!r}"
                      for o, s, (x0, y0, x1, y1) in zip(m.object_index[dets].tolist(),
                                                         m.score[dets].tolist(),
                                                         m.box[dets].tolist())]
        else:
            lines += [f"patch {p} " + " ".join(map(repr, row))
                      for p, row in zip(m.patch_id[dets].tolist(), m.scores[dets].tolist())]
        lines.append("")
    return "\n".join(lines)


def write_manifest(manifest: DatasetManifest, path) -> None:
    Path(path).write_text(to_text(manifest), encoding="utf-8")
