"""Block-structured orthonormal bases on finite L2 and the cone preorder.

The outcome set is partitioned into cells. For each cell the vectors living
on it (zero outside) form a subspace; an "e-block" spans the measurable side
of that subspace and a "beta-block" spans its orthogonal complement within
the cell. All orthogonality is with respect to the probability-weighted
inner product. The basis is one ``n x n`` matrix, a vector per row, and
coordinates come from one row-wise kernel.

On top of the block basis this module provides: locality of a risk measure
with respect to the basis (an inner-product analogue of the classical
locality on events), the preorder induced by the e-block coordinates, its
self-dual ordering cone, and natural quasiconvexity with respect to that
preorder for one-dimensional e-blocks. A cell's basis vectors span all that
lives on it, so projecting ``X`` onto them gives exactly ``X 1_C``: basis
locality evaluates its positions and their restrictions in one stacked
call, and the preorder checks decide all the triples of a shared
:class:`qcx.riskmeasure.TripleTable` at once.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .errors import AssumptionViolatedError, RankDeficientError
from .riskmeasure import (DEFAULT_CHECK_TOL, DEFAULT_SAMPLE_RANGE,
                          PropertyReport, RiskMeasureOracle, _excess_check,
                          _jensen_bound, _nqc_check, _rng, _stacked,
                          _triple_table, _vec, _verdict)
from .spaces import FiniteProbSpace, PartitionSigma, conditional_expectation

#: Orthonormality residual required of every block structure.
ORTHO_TOL = 1e-12

#: Inner-product slack of the cone self-duality check.
CONE_TOL = 1e-10


def gram_schmidt(vectors: Sequence[np.ndarray],
                 space: FiniteProbSpace) -> list[np.ndarray]:
    """Orthonormalize under the probability-weighted inner product.

    Raises :class:`qcx.errors.RankDeficientError` with the offending input
    index when a vector lies in the span of its predecessors.
    """
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    out: list[np.ndarray] = []
    for i, v in enumerate(vecs):
        w = v.copy()
        for u in out:
            w = w - space.inner(w, u) * u
        nrm = space.norm(w)
        if nrm <= 1e-10:
            raise RankDeficientError(i)
        out.append(w / nrm)
    # same-span verification: every input must reconstruct from the output
    for i, v in enumerate(vecs):
        recon = sum(space.inner(v, u) * u for u in out)
        if space.norm(v - recon) > 1e-10 * max(1.0, space.norm(v)):
            raise RankDeficientError(i)
    return out


def _inner_rows(x: np.ndarray, y: np.ndarray,
                space: FiniteProbSpace) -> np.ndarray:
    """``E[x y]`` along the last axis, broadcast over the others.

    Elementwise products and one sum, with no matrix product: no BLAS, so a
    row alone and the same row in a stack get the same bits.
    """
    return np.sum(x * y * space.p, axis=-1)


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Cells with per-cell e-blocks and beta-blocks, jointly orthonormal.

    Built from per-cell blocks of vectors, it stores them as one matrix:
    ``basis`` has the e-vectors cell by cell, then the beta-vectors cell by
    cell, one per row; ``row_cells`` is each row's cell and ``e_dims`` each
    cell's e-block size. Invariants, checked on construction: the cells
    partition the outcome set; the basis is square, ``n x n``; every row
    vanishes outside its cell; the rows are orthonormal to 1e-12. Together
    these make the rows of each cell span everything supported on it.
    ``ortho_residual`` is the largest entry of ``|Gram - I|``.
    """

    space: FiniteProbSpace
    cells: tuple[tuple[int, ...], ...]
    e_blocks: InitVar[Sequence[Sequence[np.ndarray]]]
    beta_blocks: InitVar[Sequence[Sequence[np.ndarray]]]
    basis: np.ndarray = field(init=False, repr=False)
    row_cells: np.ndarray = field(init=False, repr=False)
    e_dims: tuple[int, ...] = field(init=False)
    ortho_residual: float = field(init=False)
    _sigma: PartitionSigma = field(init=False, repr=False)

    def __post_init__(self, e_blocks, beta_blocks):
        sigma = PartitionSigma(self.cells)  # validates the disjoint cover
        if not (sigma.k == len(e_blocks) == len(beta_blocks)):
            raise ValueError("blocks must align with cells")
        n = self.space.n
        basis = np.array(list(itertools.chain(*e_blocks, *beta_blocks)),
                         dtype=float)
        if sigma.n != n or basis.shape != (n, n):
            raise ValueError(
                f"the basis must be {n} x {n}, on cells covering all {n} "
                f"outcomes: got shape {basis.shape}, cells covering {sigma.n}")
        row_cells = np.repeat(np.tile(np.arange(sigma.k), 2),
                              [len(b) for b in (*e_blocks, *beta_blocks)])
        spill = np.where(sigma.labels != row_cells[:, None], basis, 0.0)
        bad = np.flatnonzero(~(np.abs(spill).max(axis=1) <= ORTHO_TOL))
        if bad.size:
            raise ValueError(f"basis vector {bad[0]} does not vanish outside "
                             f"cell {row_cells[bad[0]]}")
        gram = (basis * self.space.p) @ basis.T
        resid = float(np.abs(gram - np.eye(n)).max())
        if not resid <= ORTHO_TOL:
            raise ValueError(f"basis is not orthonormal: residual {resid:.3e}")
        for name, value in (("basis", basis), ("row_cells", row_cells)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_sigma", sigma)
        object.__setattr__(self, "e_dims", tuple(len(e) for e in e_blocks))
        object.__setattr__(self, "ortho_residual", resid)

    @property
    def k(self) -> int:
        return len(self.cells)

    def sigma(self) -> PartitionSigma:
        return self._sigma

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of ``x`` along every basis row (e then beta),
        row-wise: ``(..., n)`` to ``(..., n)``."""
        return _inner_rows(np.asarray(x, dtype=float)[..., None, :],
                           self.basis, self.space)

    def e_coordinates(self, x: np.ndarray) -> np.ndarray:
        """One coordinate per cell, row-wise: ``(..., n)`` to ``(..., k)``;
        requires one-dimensional e-blocks."""
        if any(d != 1 for d in self.e_dims):
            raise AssumptionViolatedError(
                "e-coordinates need one-dimensional e-blocks per cell")
        return _inner_rows(np.asarray(x, dtype=float)[..., None, :],
                           self.basis[:self.k], self.space)


def project_G_complement(x: np.ndarray, sigma: PartitionSigma,
                         space: FiniteProbSpace) -> np.ndarray:
    """``x`` minus its conditional expectation; orthogonal to measurables."""
    return np.asarray(x, dtype=float) - conditional_expectation(x, sigma, space)


def blocks_from_generators(space: FiniteProbSpace,
                           cells: Sequence[Sequence[int]],
                           e_generators: Sequence[Sequence[np.ndarray]],
                           beta_generators: Sequence[Sequence[np.ndarray]]
                           ) -> BlockStructure:
    """Orthonormalize raw per-cell generators into a block structure.

    Within each cell the e-generators are orthonormalized first and the
    beta-generators are orthonormalized against them, so the printed
    generators only need to be linearly independent inside the cell. A cell
    short of vectors gets as further beta-vectors its outcome indicators, in
    order, each one that is independent of the vectors before it.
    """
    e_blocks, beta_blocks = [], []
    for ci, cell in enumerate(cells):
        gens = [np.asarray(v, dtype=float) for v in e_generators[ci]]
        n_e = len(gens)
        gens += [np.asarray(v, dtype=float) for v in beta_generators[ci]]
        for idx in cell:
            if len(gens) >= len(cell):
                break
            probe = np.zeros(space.n)
            probe[idx] = 1.0
            try:
                gram_schmidt(gens + [probe], space)
            except RankDeficientError:
                continue
            gens.append(probe)
        ortho = gram_schmidt(gens, space)
        e_blocks.append(ortho[:n_e])
        beta_blocks.append(ortho[n_e:])
    return BlockStructure(space, tuple(tuple(c) for c in cells), e_blocks,
                          beta_blocks)


def build_example_10pt() -> BlockStructure:
    """The uniform 10-outcome fixture with cells of sizes 4, 3, 3.

    Each e-block is the normalized cell indicator; the beta-blocks come from
    the printed generator lists, orthonormalized within each cell (the third
    generator of the first cell is not orthogonal to the indicator as
    printed, so Gram-Schmidt changes it). Block dimensions: e = (1, 1, 1),
    beta = (3, 2, 2).
    """
    space = FiniteProbSpace.uniform(10)
    cells = ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))
    ind = list(map(PartitionSigma(cells).indicator, range(3)))
    beta_gens = [
        [np.array([1, 1, -1, -1, 0, 0, 0, 0, 0, 0], dtype=float),
         np.array([1, -1, 1, -1, 0, 0, 0, 0, 0, 0], dtype=float),
         np.array([-1, 0, 0, -1, 0, 0, 0, 0, 0, 0], dtype=float)],
        [np.array([0, 0, 0, 0, -0.5, -0.5, 1, 0, 0, 0], dtype=float),
         np.array([0, 0, 0, 0, -1, 1, 0, 0, 0, 0], dtype=float)],
        [np.array([0, 0, 0, 0, 0, 0, 0, -0.5, -0.5, 1], dtype=float),
         np.array([0, 0, 0, 0, 0, 0, 0, -1, 1, 0], dtype=float)],
    ]
    return blocks_from_generators(space, cells, [[v] for v in ind], beta_gens)


def build_example_10pt_split() -> BlockStructure:
    """Variant with the first cell's e-block spanned by two half-indicators.

    The cells stay (4, 3, 3) but the measurable side of the first cell is
    two-dimensional: normalized indicators of outcomes {0, 1} and {2, 3}.
    Together with a coarse conditional expectation this reproduces a measure
    that is local with respect to the basis yet not local on the refined
    partition (0,1 | 2,3 | cell2 | cell3).
    """
    space = FiniteProbSpace.uniform(10)
    cells = ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))
    e11, e12, ind2, ind3 = map(refined_partition_10pt().indicator, range(4))
    return blocks_from_generators(
        space, cells,
        [[e11, e12], [ind2], [ind3]],
        [[], [], []])


def refined_partition_10pt() -> PartitionSigma:
    """sigma(A11, A12, A2, A3) with A11 = {0,1}, A12 = {2,3}."""
    return PartitionSigma.of((0, 1), (2, 3), (4, 5, 6), (7, 8, 9))


# ---------------------------------------------------------------------------
# basis locality
# ---------------------------------------------------------------------------

def check_basis_locality(rho: RiskMeasureOracle, block: BlockStructure,
                         budget: int = 200, tol: float = DEFAULT_CHECK_TOL,
                         rng=0) -> PropertyReport:
    """Locality with respect to the e-block coordinates.

    For each sampled position X, each cell i and each e-vector e^i_k, the
    coordinate ``<rho(X), e^i_k>`` must be unchanged when X is replaced by
    its projection onto the cell's basis vectors, which is exactly the
    restriction ``X 1_{C_i}``. A round makes one comparison per e-vector,
    and ``samples`` counts the comparisons made, at most ``budget`` (but at
    least one round). All rounds are drawn first and evaluated in one
    stacked call, rows ``X, X 1_{C_1}, ..., X 1_{C_k}`` per round.
    """
    gen = _rng(rng)
    n, k, m = block.space.n, block.k, sum(block.e_dims)
    rounds = max(1, budget // m)
    x = gen.uniform(*DEFAULT_SAMPLE_RANGE, (rounds, n))
    keep = np.vstack([np.ones(n, bool),
                      block.sigma().labels == np.arange(k)[:, None]])
    rows = np.where(keep, x[:, None, :], 0.0).reshape(-1, n)
    out, error = _stacked(rho, rows)
    risks = out.reshape(rounds, k + 1, n)
    e, e_cells = block.basis[:m], block.row_cells[:m]
    gaps = np.abs(_inner_rows(risks[:, :1], e, block.space)
                  - _inner_rows(risks[:, 1 + e_cells], e, block.space))

    def witness(j):
        r, i = divmod(j, m)
        cell = int(e_cells[i])
        return {"x": _vec(x[r]), "cell": cell,
                "e_index": i - sum(block.e_dims[:cell]),
                "violation": float(gaps[r, i])}
    return _verdict("basis-locality", gaps.ravel() > tol, error, rounds * m,
                    witness, tol)


# ---------------------------------------------------------------------------
# the cone preorder
# ---------------------------------------------------------------------------

def cone_leq(y: np.ndarray, v: np.ndarray, block: BlockStructure) -> bool:
    """``y`` below ``v`` in the preorder: every e-coordinate gap >= -1e-12."""
    ey, ev = block.e_coordinates(np.stack([y, v]))
    return bool(np.all(ev - ey >= -1e-12))


def _spd_inverse(gram: np.ndarray) -> np.ndarray:
    """The inverse of a symmetric positive definite matrix by Gauss-Jordan
    elimination, row operations only, so no LAPACK. Such a matrix needs no
    pivoting: each pivot is a ratio of leading principal minors, positive.
    A pivot that is not positive means that vector ``i`` of the Gram matrix
    lies in the span of those before it: RankDeficientError(i)."""
    k = len(gram)
    work = np.hstack([gram, np.eye(k)])
    for i in range(k):
        if not work[i, i] > 0:
            raise RankDeficientError(i)
        work[i] /= work[i, i]
        col = work[:, i].copy()
        col[i] = 0.0
        work -= col[:, None] * work[i]
    return work[:, k:]


def check_cone_self_dual(block: BlockStructure) -> PropertyReport:
    """Decide exactly that the ordering cone ``{sum_i c_i e_i : c >= 0}``
    is its own dual within ``span(e)``, from the e-Gram matrix ``G``.

    The cone lies in its dual iff ``G >= 0`` entrywise, and the dual in the
    cone iff ``inv(G) >= 0``, at slack ``CONE_TOL``; ``samples`` counts the
    entries decided. Every valid structure passes: its one-dimensional
    e-vectors live on disjoint cells, orthonormal to 1e-12 as the
    constructor checks, so ``G`` is within 1e-12 of the identity.
    ``inv(G)`` comes from :func:`_spd_inverse`; dependent e-vectors raise
    :class:`qcx.errors.RankDeficientError`.
    """
    # the e-coordinates of the e-vectors: row-wise, no BLAS; 1-D blocks only
    gram = block.e_coordinates(block.basis[:block.k])
    entries = np.stack([gram, _spd_inverse(gram)])

    def witness(bad):
        which, i, j = map(int, np.unravel_index(bad, entries.shape))
        return {"inclusion": ("cone-in-dual", "dual-in-cone")[which],
                "entry": [i, j], "value": float(entries[which, i, j])}
    return _verdict("cone-self-dual", ~(entries >= -CONE_TOL), None,
                    entries.size, witness, CONE_TOL)


def check_convexity_wrt_preorder(rho: RiskMeasureOracle, block: BlockStructure,
                                 *, triples, tol: float = DEFAULT_CHECK_TOL
                                 ) -> PropertyReport:
    """Jensen inequality in every e-coordinate over the triples."""
    table = _triple_table(rho, triples)
    risks, error = table.read()
    return _excess_check("convexity-wrt-preorder", table,
                         block.e_coordinates(risks), error, _jensen_bound, tol)


def check_nqc_wrt_preorder(rho: RiskMeasureOracle, block: BlockStructure,
                           *, triples, tol: float = DEFAULT_CHECK_TOL,
                           rng=0) -> PropertyReport:
    """Natural quasiconvexity with respect to the e-coordinate preorder.

    Mixing-weight feasibility runs on e-coordinate vectors exactly as the
    atom-value check does on atom values. E-blocks must be one-dimensional:
    :meth:`BlockStructure.e_coordinates` raises AssumptionViolatedError
    otherwise, once the triples have been evaluated. When the check passes,
    the report details also record convexity with respect to the preorder
    on the same triples together with the normalization and basis-locality
    hypotheses (the latter on a budget of 24 drawn from ``rng``), so the
    implication "naturally quasiconvex and local and normalized implies
    convex" can be read off the report.
    """
    table = _triple_table(rho, triples)
    risks, error = table.read()
    report = _nqc_check("nqc-wrt-preorder", table,
                        block.e_coordinates(risks),  # in one kernel call
                        error, ("e_x", "e_y", "e_mix"), tol)
    if report.failed:
        return report
    conv = check_convexity_wrt_preorder(rho, block, triples=table, tol=tol)
    zero = rho(np.zeros(block.space.n))
    normalized = bool(np.max(np.abs(zero)) <= 1e-9)
    loc = check_basis_locality(rho, block, budget=24, tol=tol, rng=rng)
    hypotheses = normalized and loc.passed
    report.details = {
        "convexity_wrt_preorder": conv.verdict.value,
        "normalized": normalized,
        "basis_local": loc.passed,
        "implication_holds": (not hypotheses) or conv.passed,
    }
    return report
