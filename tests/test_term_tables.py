"""The term tables of a separable sum against direct evaluation of the sum.

A :class:`qcx.decomp.DecomposableSum` declares its terms, and
:class:`qcx.extcore.PairTable` then looks each grid pair's mix value up in
per-term tables, and each local pair's far endpoint and mix values in
per-cell term values (:mod:`qcx.separable`), instead of evaluating the sum.
The lookup must give the bits that direct evaluation gives, pair by pair
and weight by weight, so the scan must return exactly what ``oracle_scan``
returns. The evaluation counts show the lookup at work, and its fallback
when a term's table would exceed ``SCAN_BLOCK`` entries; a term that raises
at the local pairs' values falls back to evaluation, and raises there.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qcx import extcore, families
from qcx.decomp import DecomposableSum, brute_force_sum_quasiconvex
from qcx.errors import ImproperFunctionError
from qcx.extcore import (DEFAULT_ETAS, BoxDomain, FunctionSpec, PairTable,
                         certify_quasiconvex, default_gap_tol)

from test_scan_oracle import KINDS, oracle_scan

E = math.e
DEFAULT_BLOCK = extcore.SCAN_BLOCK


def _capped_square():
    """x^2 on [0, 1], +inf beyond: the table holds +inf entries."""
    return FunctionSpec(1, lambda p: np.where(p[:, 0] <= 1.0, p[:, 0] ** 2,
                                              np.inf), name="capped")


def _saddle():
    """A 2-D term that is not itself separable."""
    return FunctionSpec(2, lambda p: np.sqrt(p[:, 0] * p[:, 1])
                        - 0.3 * p[:, 0] ** 2, name="saddle")


#: Term makers: ``rng -> (term, lo, hi)`` with the term's box bounds.
TERMS = (
    lambda rng: (families.sqrt(), (rng.uniform(0.5, 1.5),), (4.0,)),
    lambda rng: (families.make_function("neglog",
                                        weight=round(rng.uniform(0.3, 2), 3)),
                 (1.0,), (E,)),
    lambda rng: (families.square(), (rng.uniform(-1, 0),), (2.0,)),
    lambda rng: (families.make_function("exp", weight=0.5), (-1.0,), (1.0,)),
    lambda rng: (families.piecewise([0, 0.7, 1.3, 2], [1, -0.5, 0.2, 2]),
                 (0.0,), (2.0,)),
    lambda rng: (_capped_square(), (0.0,), (rng.uniform(1.2, 2),)),
    lambda rng: (_saddle(), (1.0, 1.0), (3.0, 2.0)),
)


def random_sum(seed: int) -> tuple[DecomposableSum, BoxDomain]:
    """Two or three random terms and a scanned box of at most ~150 points."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(TERMS), size=int(rng.integers(2, 4)), replace=False)
    coords, m = [], []
    for k in picks:
        f, lo, hi = TERMS[k](rng)
        grid = [int(rng.integers(3, 5 if len(picks) == 3 else 7))
                for _ in lo]
        coords.append((f, BoxDomain(lo, hi, tuple(grid))))
        m += [int(rng.integers(3, 6 if len(picks) == 3 else 8)) for _ in lo]
    dsum = DecomposableSum(tuple(coords))
    return dsum, dsum.product_box(m)


SEEDS = range(12)


def _terms_block(dsum: DecomposableSum, box: BoxDomain) -> int:
    """A few-pair block that still keeps the tables: the largest term's
    cell-pair count."""
    return max(math.prod(box.m[s:e]) ** 2
               for _, s, e in dsum.as_function().terms)


def test_random_sums_cover_the_term_kinds():
    terms = [f for seed in SEEDS for f, _ in random_sum(seed)[0].coords]
    names = {f.name for f in terms}
    assert {f.dim for f in terms} == {1, 2}
    assert {"capped", "saddle", "piecewise[4]"} <= names
    assert any("*" in name for name in names)  # a weighted term


def _pairs_of(fm: np.ndarray, skip) -> np.ndarray:
    """The entries of a block's mix values that are pairs, in position
    order: a chunk's matrix without the entries ``skip`` marks."""
    if skip is None:
        return fm
    keep = np.ones(fm.shape, dtype=bool)
    keep[:, :skip.shape[1]] = ~skip
    return fm[keep]


def _assert_lookups_are_evaluated(g: FunctionSpec, table: PairTable) -> int:
    """Every block's values against ``g`` evaluated at its pairs, as int64
    bit patterns: per chunk and weight the outer sums of the term tables;
    per local block the endpoint values, every tenth pair's endpoints and
    the mix values per weight. Returns the count of chunks."""
    chunks = 0
    for span in table.blocks:
        a, b, fa, fb = table._build(span)
        got_a, got_b, mix, skip, pair = table._block(span)
        chunks += skip is not None
        if skip is None:
            assert np.array_equal(got_a.view(np.int64), fa.view(np.int64))
            assert np.array_equal(got_b.view(np.int64), fb.view(np.int64))
            for k in [*range(0, len(a), 10), len(a) - 1]:
                pos, x1, x2 = pair(k)
                assert pos == span[0] + k, span
                assert np.array_equal(x1, a[k]) and np.array_equal(x2, b[k])
        with np.errstate(all="ignore"):
            for which, eta in enumerate(DEFAULT_ETAS):
                want = g(eta * a + (1 - eta) * b)
                got = _pairs_of(mix(which), skip)
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), (span, eta)
    return chunks


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("block", ["default", "few"])
def test_looked_up_mixes_are_the_evaluated_bits(seed, block, monkeypatch):
    """Per chunk and weight, the outer sums of the term tables equal ``g``
    evaluated at ``eta a + (1 - eta) b`` of each pair, as int64 bit
    patterns; so do the local blocks, read before the chunks, whose far
    endpoint values and mixes are outer sums of per-cell term values, and
    whose pairs' endpoints are rebuilt from their positions."""
    dsum, box = random_sum(seed)
    if block == "few":
        monkeypatch.setattr(extcore, "SCAN_BLOCK", _terms_block(dsum, box))
    g = dsum.as_function()
    table = PairTable(g, box)
    assert table.terms is not None and table.terms.runs is not None
    chunks = _assert_lookups_are_evaluated(g, table)
    grid = [span[0] < table.grid_pairs for span in table.blocks]
    assert chunks > 1 and grid.count(True) == chunks
    assert grid == sorted(grid) and table.blocks[0][0] == table.grid_pairs


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("block", ["default", "few"])
def test_scan_with_term_tables_matches_oracle(seed, block, monkeypatch):
    dsum, box = random_sum(seed)
    if block == "few":
        monkeypatch.setattr(extcore, "SCAN_BLOCK", _terms_block(dsum, box))
    g = dsum.as_function()
    table = PairTable(g, box)
    assert table.terms is not None and (block == "default"
                                        or len(table.blocks) > 10)
    for kind in KINDS:
        tol = default_gap_tol(g)
        assert table.scan(kind, tol) == oracle_scan(g, box, kind, tol), kind


def _count_points(monkeypatch) -> list[int]:
    """Count the points of every outermost ``FunctionSpec.__call__``; the
    terms a sum evaluates inside its own call are not counted again."""
    count, depth = [0], [0]
    call = FunctionSpec.__call__

    def counted(self, pts):
        depth[0] += 1
        try:
            vals = call(self, pts)
        finally:
            depth[0] -= 1
        if not depth[0]:
            count[0] += len(vals)
        return vals

    monkeypatch.setattr(FunctionSpec, "__call__", counted)
    return count


def _untabled(g: FunctionSpec) -> FunctionSpec:
    return dataclasses.replace(g, terms=())


def test_brute_force_evaluates_the_tables_and_local_pairs_only(monkeypatch):
    """On the 41 x 41 sum, the oracle evaluates the grid, 7 tables of 41^2
    mixes per term, each term at its 41 cells and, per local run, the
    moving term at the far end and 7 mixes of each valid cell (a cell whose
    step is not clipped back onto it): under 40,000 points, where the
    evaluated local pairs took a far endpoint and 7 mixes of the whole sum
    each. It certifies as the evaluation of every mix does."""
    dsum = DecomposableSum(((families.sqrt(), BoxDomain.of(1, 4, 41)),
                            (families.make_function("neglog", weight=0.7),
                             BoxDomain.of(1, E, 41))))
    box = dsum.product_box()
    table = PairTable(dsum.as_function(), box)
    local_pairs = len(table.a) - table.grid_pairs
    valid = sum(len(run.cells) for run in table.terms.runs)
    assert len(table.terms.runs) == 2 * 2 * extcore.LOCAL_SCALES
    assert valid == len(table.terms.runs) * 40
    count = _count_points(monkeypatch)
    got = brute_force_sum_quasiconvex(dsum, pair_budget=1_500_000)
    n = len(DEFAULT_ETAS)
    assert count[0] == (math.prod(box.m) + n * (41 ** 2 + 41 ** 2)
                        + (41 + 41) + (1 + n) * valid) < 40_000
    count[0] = 0
    want = certify_quasiconvex(_untabled(dsum.as_function()), box,
                               tol=1e-9, pair_budget=1_500_000)
    assert count[0] == math.prod(box.m) + (1 + n) * local_pairs + n * table.grid_pairs
    assert got == want and got.certified


def test_term_over_the_block_falls_back_to_evaluation(monkeypatch):
    """A 2-D term of 10 x 10 cells has 10^4 > SCAN_BLOCK cell pairs: no
    tables, every mix evaluated (and the witness replayed at its three
    points), the same result as an undeclared sum."""
    dsum = DecomposableSum(((_saddle(), BoxDomain.of((1, 1), (3, 2), (10, 10))),
                            (families.neglog(), BoxDomain.of(1, E, 5))))
    g, box = dsum.as_function(), dsum.product_box()
    table = PairTable(g, box)
    assert 100 ** 2 > extcore.SCAN_BLOCK and table.terms is None
    local_pairs = len(table.a) - table.grid_pairs
    count = _count_points(monkeypatch)
    got = certify_quasiconvex(g, box)
    n = len(DEFAULT_ETAS)
    old = math.prod(box.m) + (1 + n) * local_pairs + n * table.grid_pairs + 3
    assert got.refuted and count[0] == old
    count[0] = 0
    assert certify_quasiconvex(_untabled(g), box) == got
    assert count[0] == old


def _steps_sum() -> DecomposableSum:
    """Three step-valued terms: ``x`` off the integers is 1 and on them 0,
    so every grid pair's mix has a gap of 1 on that axis and gaps tie
    across the whole grid; the other two floors make the sums differ."""
    off = FunctionSpec(1, lambda p: np.ceil(p[:, 0]) - np.floor(p[:, 0]),
                       name="off-integer")
    floor2 = FunctionSpec(1, lambda p: np.floor(2 * p[:, 0]), name="floor2")
    floor = FunctionSpec(1, lambda p: np.floor(p[:, 0]), name="floor")
    return DecomposableSum(((off, BoxDomain.of(0, 4, 5)),
                            (floor2, BoxDomain.of(0, 1, 3)),
                            (floor, BoxDomain.of(0, 2, 3))))


def _scan_bits(scan) -> tuple:
    worst, witness, degen = scan
    if witness is not None:
        witness = tuple(float(x).hex() for x in (*witness.x1, *witness.x2,
                                                 witness.eta, witness.violation))
    return worst.hex(), witness, degen


@pytest.mark.parametrize("size", [extcore.SCAN_BLOCK, 1, 2, 3, 7])
def test_chunked_scan_does_not_depend_on_the_chunk_size(size, monkeypatch):
    """At every block size the chunked scan of the step sum returns the bits
    of the evaluated scan: worst gap, witness and degenerate flag. The tables
    are built at the default block size, so a block of 1 to 7 pairs streams
    chunks of one row and more with the tables kept."""
    dsum = _steps_sum()
    g, box = dsum.as_function(), dsum.product_box()
    want = {kind: _scan_bits(PairTable(_untabled(g), box).scan(kind, 1e-6))
            for kind in KINDS}
    build = extcore.term_tables

    def at_default(table, box):
        with monkeypatch.context() as default:
            default.setattr(extcore, "SCAN_BLOCK", DEFAULT_BLOCK)
            return build(table, box)

    monkeypatch.setattr(extcore, "term_tables", at_default)
    monkeypatch.setattr(extcore, "SCAN_BLOCK", size)
    table = PairTable(g, box)
    assert table.terms is not None
    for kind in KINDS:
        assert _scan_bits(table.scan(kind, 1e-6)) == want[kind], kind
    worst = table.scan("quasiconvex", 1e-6)[0]
    tied = sum(any((-np.maximum(da, db) == worst).any()
                   for _, da, db in table._diffs(block))
               for block in table.blocks if block[0] < table.grid_pairs)
    assert worst == 1.0 and tied > 1


def test_terms_must_cover_the_axes_in_order():
    """The chunk kernel reads a grid point's cells in C order, so declared
    terms out of order, overlapping or leaving an axis out are refused."""
    f = families.sqrt()
    box = BoxDomain.of((1.0, 1.0), (4.0, 4.0), (3, 3))
    for terms in (((f, 1, 2), (f, 0, 1)), ((f, 0, 1), (f, 0, 1)),
                  ((f, 0, 1),)):
        g = FunctionSpec(2, lambda p: np.sqrt(p[:, 0]) + np.sqrt(p[:, 1]),
                         terms=terms)
        with pytest.raises(ValueError, match="cover the axes in order"):
            PairTable(g, box)
    PairTable(dataclasses.replace(g, terms=((f, 0, 1), (f, 1, 2))), box)


def _sink():
    """``x``, but ``-inf`` on (0.6, 0.9), which holds no point of a grid of
    step 1/2: an improper term whose tables would hold ``-inf``."""
    return FunctionSpec(1, lambda p: np.where(
        (p[:, 0] > 0.6) & (p[:, 0] < 0.9), -np.inf, p[:, 0]), name="sink")


def _trough():
    """``-1.7e308 sin(pi x)^2``: finite, near 0 at the integers; two of
    them add to ``-inf`` at half-integers."""
    return FunctionSpec(1, lambda p: -1.7e308 * np.sin(np.pi * p[:, 0]) ** 2,
                        name="trough")


def _hole():
    """``x^2``, but ``+inf`` on (1.17, 1.2). On a grid of step 1/2 that
    holds the mix 19/16 of 1 and 3/2 at weights 3/8 and 5/8, but no grid
    point and no local step, which lie at ``k/2 +- 2^-j``."""
    return FunctionSpec(1, lambda p: np.where(
        (p[:, 0] > 1.17) & (p[:, 0] < 1.2), np.inf, p[:, 0] ** 2),
        name="hole")


def _outcome(g: FunctionSpec, box: BoxDomain, kind: str):
    """The bits of a scan of ``g``, or the type and message of its error."""
    try:
        return _scan_bits(PairTable(g, box).scan(kind, 1e-6))
    except (ValueError, ImproperFunctionError) as err:
        return type(err), str(err)


def _edge_table(coords, block, monkeypatch):
    """The declared sum of ``coords`` and its box, with the tables kept, at
    the default block size or at a few pairs."""
    dsum = DecomposableSum(coords)
    g, box = dsum.as_function(), dsum.product_box()
    if block == "few":
        monkeypatch.setattr(extcore, "SCAN_BLOCK", _terms_block(dsum, box))
    assert PairTable(g, box).terms is not None
    return g, box


@pytest.mark.parametrize("block", ["default", "few"])
def test_improper_term_tables_hold_minus_inf(block, monkeypatch):
    """The sink's mixes hold ``-inf``, so building its tables raises, with
    the error of the evaluated sum."""
    dsum = DecomposableSum(((_sink(), BoxDomain.of(0, 2, 5)),
                            (families.sqrt(), BoxDomain.of(1, 4, 4))))
    g, box = dsum.as_function(), dsum.product_box()
    if block == "few":
        monkeypatch.setattr(extcore, "SCAN_BLOCK", _terms_block(dsum, box))
    with pytest.raises(ImproperFunctionError, match="sink declared proper"):
        PairTable(g, box)
    for kind in KINDS:
        got = _outcome(g, box, kind)
        assert got == _outcome(_untabled(g), box, kind), kind
        assert got[0] is ImproperFunctionError


@pytest.mark.parametrize("block", ["default", "few"])
def test_finite_terms_that_overflow_raise_alike(block, monkeypatch):
    """Each trough table is finite, but the sum of their minima is
    ``-inf``: the chunks are checked, and raise as the evaluated sum does."""
    g, box = _edge_table(((_trough(), BoxDomain.of(0, 4, 5)),
                          (_trough(), BoxDomain.of(0, 4, 5))),
                         block, monkeypatch)
    table = PairTable(g, box)
    assert all(np.isfinite(t).all() for _, _, tables, _ in table.terms.terms
               for t in tables)
    assert table.terms.floors == [-math.inf] * len(DEFAULT_ETAS)
    assert table.terms.mix_floors == [-math.inf] * len(DEFAULT_ETAS)
    for kind in KINDS:
        got = _outcome(g, box, kind)
        assert got[0] is ImproperFunctionError
        assert got == _outcome(_untabled(g), box, kind), kind


@pytest.mark.parametrize("block", ["default", "few"])
@pytest.mark.parametrize("second", ["hole", "capped"])
def test_masked_non_pairs_turn_nan(second, block, monkeypatch):
    """A term that is ``+inf`` on some cells puts ``+inf`` at mixes of
    entries that are no pair; their gaps against the masked reference are
    NaN, which is not degenerate. The hole is finite on the grid, so no pair
    is degenerate; the capped term is ``+inf`` at grid points, so some
    pairs are. Either way the scan returns the untabled bits."""
    term = (_hole(), BoxDomain.of(0, 2, 5)) if second == "hole" else (
        _capped_square(), BoxDomain.of(0, 1.5, 4))
    g, box = _edge_table(((families.sqrt(), BoxDomain.of(1, 4, 3)), term),
                         block, monkeypatch)
    table = PairTable(g, box)
    masked = 0
    for span in table.blocks:
        if span[0] < table.grid_pairs:
            _, _, mix, skip, _ = table._block(span)
            masked += sum(int(np.isposinf(mix(w)[skip]).sum())
                          for w in range(len(DEFAULT_ETAS)))
    assert masked > 0
    for kind in KINDS:
        got = _outcome(g, box, kind)
        assert got == _outcome(_untabled(g), box, kind), kind
        assert got[2] == (second == "capped"), kind


def _dyadic(name: str) -> FunctionSpec:
    """``x^2`` on the multiples of ``2^-9``, NaN off them: on a grid of step
    1/2 the grid pairs' mixes and the local steps' far ends are such
    multiples, the mixes of the shortest steps are not."""
    return FunctionSpec(1, lambda p: np.where(
        np.floor(p[:, 0] * 512) == p[:, 0] * 512, p[:, 0] ** 2, np.nan),
        name=name)


def test_terms_that_fail_at_local_mixes_raise_where_evaluated(monkeypatch):
    """Both terms return NaN at mixes of their short steps, whose runs lie
    in different blocks. The batched call of the first raises at build, so
    the table keeps its grid tables but evaluates its local blocks, and
    each pass raises the evaluated sum's error: the first term's, which the
    evaluated sum meets first."""
    g, box = _edge_table(((_dyadic("first"), BoxDomain.of(0, 2, 5)),
                          (_dyadic("second"), BoxDomain.of(0, 2, 5))),
                         "few", monkeypatch)
    table = PairTable(g, box)
    assert table.terms.runs is None
    owners = {span: {axis for first, size, (axis, *_) in table.local
                     if first < span[1] and span[0] < first + size}
              for span in table.blocks if span[0] >= table.grid_pairs}
    assert {0} in owners.values() and {1} in owners.values()
    for kind in KINDS:
        got = _outcome(g, box, kind)
        assert got == (ValueError, "oracle for first returned NaN"), kind
        assert got == _outcome(_untabled(g), box, kind), kind

    def probe(g, lam):
        try:
            return PairTable(g, box).exp_transform_ok(lam)
        except ValueError as err:
            return str(err)

    for lam in (-1.0, 1.0):
        assert probe(g, lam) == probe(_untabled(g), lam), lam


def _far() -> FunctionSpec:
    """``(x - 2^52)^2``, for coordinates from ``2^52``, where a step of half
    the grid's unit spacing rounds onto its base at the even cells only."""
    return FunctionSpec(1, lambda p: (p[:, 0] - 2.0 ** 52) ** 2, name="far")


@pytest.mark.parametrize("block", ["default", "few"])
def test_steps_that_round_onto_some_cells_only(block, monkeypatch):
    """On ``[2^52, 2^52 + 8]`` in steps of 1, a step of ``+-1/2`` ties and
    rounds to the even coordinate: it moves the odd cells only, so its run's
    valid cells are no slab, and steps of ``1/4`` and less move no cell.
    The lookups are still the evaluated bits, and every scan returns the
    untabled bits."""
    g, box = _edge_table(((families.sqrt(), BoxDomain.of(1, 4, 5)),
                          (_far(), BoxDomain.of(2.0 ** 52, 2.0 ** 52 + 8, 9))),
                         block, monkeypatch)
    table = PairTable(g, box)
    cuts = {(axis, step): run.cells.tolist() for run, (_, _, (axis, step, *_))
            in zip(table.terms.runs, table.local)}
    assert cuts[1, 0.5] == cuts[1, -0.5] == [1, 3, 5, 7]
    assert (1, 0.25) not in cuts and cuts[1, 1.0] == [*range(8)]
    _assert_lookups_are_evaluated(g, table)
    for kind in KINDS:
        assert _outcome(g, box, kind) == _outcome(_untabled(g), box, kind), kind


def test_three_term_brute_force_memory_is_bounded():
    """The 13^3 sum of the ``brute`` workload scans its 2.4 M grid pairs
    and 110 k local pairs in under 1.25 MB: the local blocks hold per-cell
    term values and 8192-entry value arrays, no ``(block, 3)`` endpoint or
    mix arrays, which took the peak to 1.57 MB."""
    dsum = DecomposableSum((
        (families.sqrt(), BoxDomain.of(1, 4, 13)),
        (families.make_function("neglog", weight=1.0), BoxDomain.of(1, E, 13)),
        (families.square(), BoxDomain.of(1, 2, 13))))
    tracemalloc.start()
    try:
        res = brute_force_sum_quasiconvex(dsum, pair_budget=2_500_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.refuted
    assert peak < 1.25 * 2 ** 20, peak / 2 ** 20
