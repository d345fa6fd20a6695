"""Hard-detection semantic descriptors.

Each detection of a selected object contributes the posterior column looked
up at its own score; per spatial-pyramid region the columns of an object are
averaged into one row.  The descriptor stacks all region matrices (regions in
layout order, selected objects as rows, classes as columns).  Because scores
only enter through the nearest-grid-point lookup, small score perturbations
leave the descriptor bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VariantError
from .ingest import HARD, DatasetManifest
from .occurrence import (
    DiscriminantSelection,
    PosteriorModel,
    score_grid_indices,
)

DEFAULT_LEVELS = ((1, 1), (2, 2), (3, 1))
# a layout can come from a bundle or config file, and every image's descriptor
# holds region_count x objects x classes cells: bound the regions before
# anything is allocated (the default pyramid has 8, a 32 x 32 grid 1024)
_MAX_REGIONS = 1024


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
        if self.region_count > _MAX_REGIONS:
            raise ValueError(f"pyramid has {self.region_count} regions, more than "
                             f"{_MAX_REGIONS}")

    @property
    def region_count(self) -> int:
        return sum(r * c for r, c in self.levels)


def pyramid_regions(box: np.ndarray, layout: PyramidLayout) -> np.ndarray:
    """[n_levels, n]: the global region index of each box centre per level.

    Regions are numbered row-major within a level and levels follow each
    other in layout order.  Centres exactly on an interior boundary go to the
    lower-index region.
    """
    cx = 0.5 * (box[:, 0] + box[:, 2])
    cy = 0.5 * (box[:, 1] + box[:, 3])
    out = np.empty((len(layout.levels), len(box)), dtype=np.intp)
    offset = 0
    for level, (rows, cols) in enumerate(layout.levels):
        col = np.clip(np.ceil(cx * cols) - 1, 0, cols - 1)
        row = np.clip(np.ceil(cy * rows) - 1, 0, rows - 1)
        out[level] = offset + row * cols + col
        offset += rows * cols
    return out


def descriptor_length(n_selected: int, n_classes: int,
                      layout: PyramidLayout = PyramidLayout()) -> int:
    return layout.region_count * n_selected * n_classes


def encode_hard_manifest(manifest: DatasetManifest, post: PosteriorModel,
                         sel: DiscriminantSelection,
                         layout: PyramidLayout = PyramidLayout()) -> np.ndarray:
    """[n_records, descriptor_length]: the pyramid-stacked posterior
    descriptor of every record.

    Undetected (region, object) rows stay zero; a record without detections
    encodes to the zero vector.
    """
    if manifest.mode != HARD:
        raise VariantError("encode_hard_manifest needs a hard-detection manifest")
    n_sel, n_cls = len(sel.selected), post.n_classes
    out = np.zeros((len(manifest), layout.region_count * n_sel * n_cls))
    rows = out.reshape(-1, n_cls)  # one row per (image, region, object)

    image, obj, score, box = (manifest.image, manifest.object_index, manifest.score,
                              manifest.box)
    pos_of = np.full(len(manifest.vocabulary), -1, dtype=np.intp)
    pos_of[list(sel.selected)] = np.arange(n_sel)
    pos = pos_of[obj]
    keep = pos >= 0
    image, obj, pos, box = image[keep], obj[keep], pos[keep], box[keep]
    t = score_grid_indices(post.grid, score[keep])

    region = pyramid_regions(box, layout)  # [n_levels, m]
    row = ((image * layout.region_count + region) * n_sel + pos).reshape(-1)
    t = np.broadcast_to(t, region.shape).reshape(-1)
    obj = np.broadcast_to(obj, region.shape).reshape(-1)
    # add each row's columns in ascending grid order, one after another, so
    # the sums are bit-identical under any detection order
    order = np.lexsort((t, row))
    np.add.at(rows, row[order], post.posteriors[obj[order], :, t[order]])
    touched, counts = np.unique(row, return_counts=True)
    rows[touched] /= counts[:, None]
    return out
