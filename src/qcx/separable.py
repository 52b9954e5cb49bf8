"""The pair values of a declared separable sum, looked up in term tables.

A function that declares separable ``terms`` (:attr:`FunctionSpec.terms`) is
``0 + f_1 + f_2 + ...`` over consecutive axis ranges, summed in that order.
:class:`qcx.extcore.PairTable` evaluates such a sum on its grid only, and
gets every other value of a pair from per-term values at the cells of the
terms' sub-grids, which :class:`TermTables` makes once per table:

* a grid pair's mix along a term's axes depends only on its two cells
  there, so a chunk of whole grid rows gets its mix values as the outer sum
  ``0 + T_1 + T_2 + ...`` of the per-term tables ``T_k[p, q]``;
* a local pair steps along one axis, which one term owns, so the pairs of a
  local run are a lattice of cells, and its far endpoint values and mix
  values are outer sums of the other terms' cell values or table diagonals
  ``T_k[c, c]`` and the moving term's values at its far ends and mixes.

Either way the outer sums add as the sum does, on the values the sum's own
terms take there: the evaluated bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import extcore
from .extcore import DEFAULT_ETAS, BoxDomain, _mix_points


class _Run(NamedTuple):
    """A local run of pairs, at positions ``first`` up to ``first + size``:
    term ``term`` moves, along grid axis ``axis``, from its cells ``cells``
    to the coordinates ``coord``, up (``a`` the grid point) or down; its
    pairs lie on ``lattice``, and ``far`` and ``mixes[which]`` hold the
    term's values at the far ends and the mixes."""

    first: int
    size: int
    term: int
    lattice: tuple
    cells: np.ndarray
    axis: int
    coord: np.ndarray
    up: bool
    far: np.ndarray
    mixes: np.ndarray


def _outer(parts, out=None):
    """``parts[0] + parts[1] + ...`` in that order, each part shaped to
    broadcast along an axis of its own; the last sum goes into ``out`` if
    given. One part is copied."""
    total = parts[0]
    for k, part in enumerate(parts[1:], 2):
        total = np.add(total, part, out=out if k == len(parts) else None)
    return np.positive(total, out=out) if len(parts) == 1 else total


def term_tables(table, box: BoxDomain) -> Optional["TermTables"]:
    """The :class:`TermTables` of ``table``'s declared sum on ``box``, or
    None when a term has over ``SCAN_BLOCK`` cell pairs."""
    terms = table.g.terms
    if [x for _, s, e in terms for x in range(s, e)] != [*range(box.dim)]:
        raise ValueError("terms must cover the axes in order")
    spans = [(f, first, stop, math.prod(box.m[first:stop]))
             for f, first, stop in terms]
    if any(size * size > extcore.SCAN_BLOCK for *_, size in spans):
        return None
    return TermTables(table, box, spans)


class TermTables:
    """Per-term values of a declared sum, and the pair table's chunks and
    local blocks built from them.

    ``terms`` holds per term ``(stride, M, tables, shape)``: grid point
    ``i`` lies in cell ``i // stride % M`` of the term's sub-grid of ``M``
    points; per weight, ``tables[which][p, q]`` is ``0 +`` the term's value
    at the mix of cells ``p`` and ``q``; ``shape`` broadcasts the rows that
    :meth:`chunk` takes from the tables along the term's axis of the outer
    sum. The ``0 +`` is the sum's first addition, made once, for the
    leading term; for the others it changes no sum, as it only makes
    ``-0.0`` ``+0.0`` and no partial sum after ``0 + T_1`` is ``-0.0``.
    Every term vector below holds ``0 +`` its values too.

    ``floors``: per weight, the float sum ``0 + min T_1 + min T_2 + ...``
    of the tables' minima in term order. Float addition is monotone (``a <=
    a'`` and ``b <= b'`` give ``fl(a + b) <= fl(a' + b')`` where no operand
    is NaN), so by induction on ``k`` each partial outer sum ``0 + T_1 +
    ... + T_k`` of a chunk is at least the same partial sum of minima. A
    floor above ``-inf`` is no NaN, so no table holds NaN (``min``
    propagates it) or ``-inf`` (a partial sum of minima that is ``-inf`` or
    NaN stays so), and no partial sum adds ``-inf`` to ``+inf``: the
    weight's outer sums are neither NaN nor ``-inf``, and need no check.

    ``runs`` holds per local run of the table, in position order, the
    moving term ``t`` and its valid cells, whose step is not clipped back
    onto themselves (a step is clipped along one axis of the term, so the
    run's grid points are the lattice of every term's cells with term
    ``t``'s cut to its valid ones, in C order), with the term's values at
    the far ends and, per weight, at the mixes of those cells. They come
    from two calls of the term per term, for all its runs, made at build;
    if a call raises, ``runs`` is None and the local blocks are evaluated,
    so every error is raised where the evaluation raises it. Floors of the
    same kind bound the far ends' and the local mixes' outer sums: per slot
    ``k``, the least value any vector that fills it holds.
    """

    def __init__(self, table, box: BoxDomain, spans):
        self.g, self.pts, self.grid_values = table.g, table.pts, table.grid_values
        self.row_start, self.grid_pairs = table.row_start, table.grid_pairs
        self.terms, self.floors, subs = [], [0.0] * len(DEFAULT_ETAS), []
        for t, (f, first, stop, size) in enumerate(spans):
            sub = BoxDomain(box.lo[first:stop], box.hi[first:stop],
                            box.m[first:stop]).points()
            a, b = np.repeat(sub, size, axis=0), np.tile(sub, (size, 1))
            with np.errstate(all="ignore"):
                tables = [0.0 + f(_mix_points(a, b, eta)).reshape(size, size)
                          for eta in DEFAULT_ETAS]
            self.floors = [x + float(tab.min())
                           for x, tab in zip(self.floors, tables)]
            # the leading term's one row, or any count of the others' rows
            shape = [1] * (len(spans) + 1)
            shape[0], shape[t + 1] = (-1, size) if t else (1, -1)
            self.terms.append((math.prod(box.m[stop:]), size, tables,
                               tuple(shape)))
            subs.append(sub)
        try:
            with np.errstate(all="ignore"):
                self.runs = self._local_runs(table.local, spans, subs)
        except Exception:  # the local blocks are evaluated, raising there
            self.runs = None

    def _local_runs(self, local, spans, subs):
        """``runs`` and the local floors (see the class), with the per-term
        vectors shaped along their axes of the run's lattice."""
        along = [(1,) * t + (-1,) + (1,) * (len(spans) - t - 1)
                 for t in range(len(spans))]
        owner = [t for t, (_, first, stop, _) in enumerate(spans)
                 for _ in range(first, stop)]
        self.cell_values = [(0.0 + f(sub)).reshape(shape)
                      for (f, *_), sub, shape in zip(spans, subs, along)]
        self.diags = [[np.diagonal(tables[which]).reshape(shape)
                       for (_, _, tables, _), shape in zip(self.terms, along)]
                      for which in range(len(DEFAULT_ETAS))]
        runs, ends, mixes = [None] * len(local), [], []
        for t, ((f, first, *_), sub) in enumerate(zip(spans, subs)):
            mine = [k for k, (*_, run) in enumerate(local) if owner[run[0]] == t]
            axes, steps, lo, hi = (np.array(x) for x in zip(*(
                (axis - first, step, lo, hi)
                for *_, (axis, step, lo, hi) in map(local.__getitem__, mine))))
            x = sub[:, axes].T  # each run's coordinates along its axis
            moved = np.clip(x + steps[:, None], lo[:, None], hi[:, None])
            at, cells = np.nonzero(moved != x)  # run by run, in cell order
            near, coord = sub[cells], moved[at, cells]
            far = near.copy()
            far[np.arange(len(far)), axes[at]] = coord
            up = (steps > 0)[at, None]
            a, b = np.where(up, near, far), np.where(up, far, near)
            ends.append(0.0 + f(far))
            mixes.append((0.0 + f(np.concatenate(
                [_mix_points(a, b, eta) for eta in DEFAULT_ETAS]))).reshape(
                    len(DEFAULT_ETAS), -1))
            stops = np.cumsum(np.bincount(at, minlength=len(mine))).tolist()
            for k, i, j in zip(mine, [0] + stops, stops):
                first_pair, size, (axis, step, *_) = local[k]
                runs[k] = _Run(first_pair, size, t, tuple(
                    j - i if u == t else s for u, (*_, s) in enumerate(spans)),
                    cells[i:j], axis, coord[i:j], step > 0,
                    ends[t][i:j].reshape(along[t]),
                    mixes[t][:, i:j].reshape((len(DEFAULT_ETAS),) + along[t]))
        self.end_floor = sum((min(c.min(), e.min())
                              for c, e in zip(self.cell_values, ends)), 0.0)
        self.mix_floors = [float(x) for x in sum(
            (np.minimum(np.stack([np.diagonal(tab) for tab in tables]).min(axis=1),
                        m.min(axis=1))
             for (_, _, tables, _), m in zip(self.terms, mixes)), 0.0)]
        return runs

    def chunks(self):
        """Position ranges of runs of whole rows in one cell of the leading
        term, of at most ``4 * SCAN_BLOCK`` entries of :meth:`chunk` or one
        row; sets ``chunk_size``, the entries of the largest."""
        n, cell = len(self.pts), self.terms[0][0]
        rows = []
        for c0 in range(0, n, cell):
            step = max(1, 4 * extcore.SCAN_BLOCK // (n - c0))
            rows += range(c0, min(c0 + cell, n - 1), step)
        self.chunk_size = max((b - a) * (n - a + a % cell)
                              for a, b in zip(rows, rows[1:] + [n - 1]))
        bounds = [int(self.row_start[i]) for i in rows] + [self.grid_pairs]
        return list(zip(bounds, bounds[1:]))

    def chunk(self, block, out=None):
        """A chunk's grid pairs as matrices: rows ``i`` share the leading
        term's cell ``p``, columns ``j`` run from that cell's first point to
        the end of the grid, and ``skip`` marks the entries ``j <= i``.
        ``mix(which)`` is the broadcast outer sum ``0 + T_1[p, p:] + T_2[cell
        of i, :] + ...``, which adds as the sum does: the evaluated bits. The
        partial sums keep their broadcast shapes, the leading row one row;
        the last sum goes into ``out``, a flat buffer of at least the chunk's
        entries, if given. Only a weight whose floor is not above ``-inf``
        has its sums checked as oracle values are."""
        i0, i1 = (int(i) for i in np.searchsorted(self.row_start, block))
        p = i0 // self.terms[0][0]  # the rows' cell of the leading term
        c0 = p * self.terms[0][0]
        rows, cols = np.arange(i0, i1), len(self.pts) - c0
        skip = np.arange(c0, len(self.pts)) <= rows[:, None]
        *_, lead, head = self.terms[0]
        cells = [(rows // stride % size, tables, shape)
                 for stride, size, tables, shape in self.terms[1:]]
        full = None if out is None else out[:skip.size].reshape(
            len(rows), -1, *(size for _, size, *_ in self.terms[1:]))

        def mix(which):
            fm = _outer([lead[which][p, p:].reshape(head)]
                        + [tables[which][q].reshape(shape)
                           for q, tables, shape in cells], full)
            fm = fm.reshape(len(rows), -1)
            if not self.floors[which] > -math.inf and not fm.min() > -math.inf:
                self.g.check(fm[~skip])  # a NaN or -inf, maybe in no pair
            return fm

        def pair(k):
            i, j = i0 + k // cols, c0 + k % cols
            return int(self.row_start[i]) + j - i - 1, self.pts[i], self.pts[j]

        return (self.grid_values[i0:i1, None], self.grid_values[None, c0:],
                mix, skip, pair)

    def steps(self, block):
        """``(fa, fb, mix, None, pair)`` of the local pairs at positions
        ``block[0]`` up to ``block[1]``, as the evaluated blocks of
        ``PairTable._block`` give them: per run, the grid points' values
        are read off the grid, the far ends' and the mixes' are outer sums
        (see the class), each checked as its evaluation is (the far ends
        run by run, the mixes a block and weight at a time) where its floor
        is not above ``-inf``, and ``pair(k)`` rebuilds the endpoints."""
        start, stop = block
        parts = [(run, max(start - run.first, 0),
                  min(stop - run.first, run.size)) for run in self.runs
                 if run.first < stop and start < run.first + run.size]
        grid = self.grid_values.reshape([size for _, size, *_ in self.terms])

        def fill(sums, check=False):
            """The block's values, ``sums(run, out)`` of each run sliced."""
            values, at = np.empty(stop - start), 0
            for run, lo, hi in parts:
                dst = values[at:at + hi - lo]
                whole = dst.reshape(run.lattice) if hi - lo == run.size else None
                got = sums(run, whole)
                if whole is None:
                    dst[:] = got.reshape(-1)[lo:hi]
                if check:
                    self.g.check(dst)
                at += hi - lo
            return values

        def slots(run, vectors, own):
            return [*vectors[:run.term], own, *vectors[run.term + 1:]]

        near = fill(lambda run, out: np.take(grid, run.cells, axis=run.term,
                                             out=out))
        far = fill(lambda run, out: _outer(
            slots(run, self.cell_values, run.far), out),
            not self.end_floor > -math.inf)
        down = np.repeat([not run.up for run, *_ in parts],
                         [hi - lo for _, lo, hi in parts])
        fa, fb = np.where(down, far, near), np.where(down, near, far)

        def mix(which):
            fm = fill(lambda run, out: _outer(
                slots(run, self.diags[which], run.mixes[which]), out))
            if not self.mix_floors[which] > -math.inf:
                self.g.check(fm)
            return fm

        def pair(k):
            run = next(run for run, *_ in parts
                       if start + k < run.first + run.size)
            at = np.unravel_index(start + k - run.first, run.lattice)
            step = int(at[run.term])
            cells = [*at[:run.term], run.cells[step], *at[run.term + 1:]]
            near = self.pts[sum(int(c) * stride for c, (stride, *_)
                                in zip(cells, self.terms))]
            far = near.copy()
            far[run.axis] = run.coord[step]
            return (start + k, near, far) if run.up else (start + k, far, near)

        return fa, fb, mix, None, pair
