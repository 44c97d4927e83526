"""The grid-mean cell rule in scalar Python floats: the reference that the
tests hold ``harness._grid_cells``, the grid-mean batch and the grid-mean
convolution oracle to."""

import dataclasses
import math

from adasub.core import Query


def grid_cell(total: float, w: int, shift: float, first_center: float,
              step: float, cells: int) -> int:
    """The cell of the mean total/w + shift: its offset from the first
    centre in steps, clamped to [0, cells - 1] before it is rounded half to
    even, so +-inf takes an end cell."""
    v = total / w + shift
    return round(min(max((v - first_center) / step, 0.0), cells - 1.0))


def scalar_grid_mean(q: Query) -> Query:
    """An unbatched copy of a grid-mean query whose evaluator applies
    ``grid_cell`` to ``math.fsum`` of the subsample, independent of the
    query's batch form."""
    _, w, shift = q.tag
    c = q.outputs
    step = c[1] - c[0]
    return dataclasses.replace(q, batch=None, evaluator=lambda *xs: c[
        grid_cell(math.fsum(xs), w, shift, c[0], step, len(c))])
