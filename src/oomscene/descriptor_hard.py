"""Hard-detection semantic descriptors.

Each detection of a selected object contributes the posterior column looked
up at its own score; per spatial-pyramid region the columns of an object are
averaged into one row.  The descriptor stacks all region matrices (regions in
layout order, selected objects as rows, classes as columns).  Because scores
only enter through the nearest-grid-point lookup, small score perturbations
leave the descriptor bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import VariantError
from .ingest import HARD, DatasetManifest, ImageRecord
from .occurrence import (
    DiscriminantSelection,
    PosteriorModel,
    score_grid_index,
)

DEFAULT_LEVELS = ((1, 1), (2, 2), (3, 1))


@dataclass(frozen=True)
class PyramidLayout:
    """Spatial pyramid levels as (rows, cols) grids tiling the unit square."""

    levels: tuple[tuple[int, int], ...] = DEFAULT_LEVELS

    def __post_init__(self):
        levels = tuple((int(r), int(c)) for r, c in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("pyramid needs at least one level")
        if any(r < 1 or c < 1 for r, c in levels):
            raise ValueError("every pyramid level needs rows >= 1 and cols >= 1")

    @property
    def region_count(self) -> int:
        return sum(r * c for r, c in self.levels)


def assign_region(box, level: tuple[int, int]) -> int:
    """Region index (row-major) of the box center on a (rows, cols) grid.

    Centers exactly on an interior boundary go to the lower-index region.
    """
    rows, cols = level
    x0, y0, x1, y1 = box
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    col = min(cols - 1, max(0, math.ceil(cx * cols) - 1))
    row = min(rows - 1, max(0, math.ceil(cy * rows) - 1))
    return row * cols + col


def _region_buckets(record, sel, grid, layout):
    """Map (global region, selection position) -> grid-column indices."""
    pos_of = {obj: i for i, obj in enumerate(sel.selected)}
    buckets: dict[tuple[int, int], list[int]] = {}
    for det in record.detections:
        i = pos_of.get(det.object_index)
        if i is None:
            continue
        t = score_grid_index(grid, det.score)
        offset = 0
        for rows, cols in layout.levels:
            reg = offset + assign_region(det.box, (rows, cols))
            buckets.setdefault((reg, i), []).append(t)
            offset += rows * cols
    return buckets


def encode_hard(record: ImageRecord, post: PosteriorModel,
                sel: DiscriminantSelection,
                layout: PyramidLayout = PyramidLayout()) -> np.ndarray:
    """Pyramid-stacked posterior descriptor of one hard-detection record.

    Undetected (region, object) rows stay zero; a record without detections
    encodes to the zero vector.  The result has length
    region_count * len(sel) * n_classes.
    """
    if record.mode != HARD:
        raise VariantError("encode_hard needs a hard-detection record")
    n_sel, n_cls = len(sel.selected), post.n_classes
    out = np.zeros((layout.region_count, n_sel, n_cls))
    for (reg, i), ts in _region_buckets(record, sel, post.grid, layout).items():
        # sort the grid columns so accumulation order is canonical: the
        # encoding is then bit-identical under detection reordering
        cols = post.posteriors[sel.selected[i], :, np.sort(np.asarray(ts))]
        out[reg, i, :] = cols.sum(axis=0) / len(ts)
    return out.reshape(-1)


def descriptor_length(n_selected: int, n_classes: int,
                      layout: PyramidLayout = PyramidLayout()) -> int:
    return layout.region_count * n_selected * n_classes


def encode_hard_manifest(manifest: DatasetManifest, post: PosteriorModel,
                         sel: DiscriminantSelection,
                         layout: PyramidLayout = PyramidLayout()) -> np.ndarray:
    """Stack encode_hard over all records: [n_records, descriptor_length]."""
    return np.stack([encode_hard(r, post, sel, layout) for r in manifest.records])
