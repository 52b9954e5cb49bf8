"""Block-structured orthonormal bases on finite L2 and the cone preorder.

The outcome set is partitioned into cells. For each cell the vectors living
on it (zero outside) form a subspace; an "e-block" spans the measurable side
of that subspace and a "beta-block" spans its orthogonal complement within
the cell. All orthogonality is with respect to the probability-weighted
inner product.

On top of the block basis this module provides: locality of a risk measure
with respect to the basis (an inner-product analogue of the classical
locality on events), the preorder induced by the e-block coordinates, its
self-dual ordering cone, and natural quasiconvexity with respect to that
preorder for one-dimensional e-blocks. The preorder checks decide all the
triples of a shared :class:`qcx.riskmeasure.TripleTable` at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import AssumptionViolatedError, RankDeficientError
from .riskmeasure import (CheckVerdict, DEFAULT_CHECK_TOL, PropertyReport,
                          RiskMeasureOracle, _excess_check, _first_failure,
                          _jensen_bound, _mu_feasibility, _mu_infeasible, _rng,
                          _stacked, _triple_table, _vec)
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


@dataclass(frozen=True)
class BlockStructure:
    """Cells with per-cell e-blocks and beta-blocks, jointly orthonormal.

    Invariants, checked on construction: the cells partition the outcome
    set; every basis vector vanishes outside its cell; all vectors are
    pairwise orthonormal to 1e-12; within each cell the two blocks together
    span everything supported on the cell (their sizes add up to the cell
    size). ``ortho_residual`` is the largest entry of ``|Gram - I|``.
    """

    space: FiniteProbSpace
    cells: tuple[tuple[int, ...], ...]
    e_blocks: tuple[tuple[np.ndarray, ...], ...]
    beta_blocks: tuple[tuple[np.ndarray, ...], ...]
    ortho_residual: float = field(init=False, compare=False)

    def __post_init__(self):
        PartitionSigma(self.cells)  # validates the disjoint cover
        if not (len(self.cells) == len(self.e_blocks) == len(self.beta_blocks)):
            raise ValueError("blocks must align with cells")
        n = self.space.n
        for ci, cell in enumerate(self.cells):
            outside = np.ones(n, dtype=bool)
            outside[list(cell)] = False
            for v in list(self.e_blocks[ci]) + list(self.beta_blocks[ci]):
                if len(v) != n:
                    raise ValueError("basis vector length mismatch")
                if np.abs(np.asarray(v)[outside]).max(initial=0.0) > ORTHO_TOL:
                    raise ValueError(f"vector does not vanish outside cell {ci}")
            if len(self.e_blocks[ci]) + len(self.beta_blocks[ci]) != len(cell):
                raise ValueError(f"blocks of cell {ci} do not span the cell")
        allv = self.all_vectors()
        gram = np.array([[self.space.inner(a, b) for b in allv] for a in allv])
        resid = float(np.abs(gram - np.eye(len(allv))).max())
        if resid > ORTHO_TOL:
            raise ValueError(f"basis is not orthonormal: residual {resid:.3e}")
        object.__setattr__(self, "ortho_residual", resid)

    @property
    def k(self) -> int:
        return len(self.cells)

    def sigma(self) -> PartitionSigma:
        return PartitionSigma(self.cells)

    def all_vectors(self) -> list[np.ndarray]:
        out = []
        for e in self.e_blocks:
            out.extend(e)
        for b in self.beta_blocks:
            out.extend(b)
        return out

    def e_dims(self) -> tuple[int, ...]:
        return tuple(len(e) for e in self.e_blocks)

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of ``x`` along every basis vector (e then beta)."""
        return np.array([self.space.inner(x, v) for v in self.all_vectors()])

    def e_coordinates(self, x: np.ndarray) -> np.ndarray:
        """One coordinate per cell; requires one-dimensional e-blocks."""
        if any(len(e) != 1 for e in self.e_blocks):
            raise AssumptionViolatedError(
                "e-coordinates need one-dimensional e-blocks per cell")
        return np.array([self.space.inner(x, e[0]) for e in self.e_blocks])

    def cell_projection_argument(self, x: np.ndarray, cell: int) -> np.ndarray:
        """``sum_k <x, e^i_k> e^i_k + x-perp-within-the-cell`` for cell i."""
        out = np.zeros(self.space.n)
        for v in self.e_blocks[cell]:
            out += self.space.inner(x, v) * v
        for v in self.beta_blocks[cell]:
            out += self.space.inner(x, v) * v
        return out


def project_G_complement(x: np.ndarray, sigma: PartitionSigma,
                         space: FiniteProbSpace) -> np.ndarray:
    """``x`` minus its conditional expectation; orthogonal to measurables."""
    return np.asarray(x, dtype=float) - conditional_expectation(x, sigma, space)


def blocks_from_generators(space: FiniteProbSpace,
                           cells: Sequence[Sequence[int]],
                           e_generators: Sequence[Sequence[np.ndarray]],
                           beta_generators: Sequence[Sequence[np.ndarray]],
                           complete: bool = False) -> BlockStructure:
    """Orthonormalize raw per-cell generators into a block structure.

    Within each cell the e-generators are orthonormalized first and the
    beta-generators are orthonormalized against them, so the printed
    generators only need to be linearly independent inside the cell. With
    ``complete=True`` any dimension missing from the beta-block is filled
    with outcome indicators of the cell (deterministically).
    """
    e_blocks: list[tuple[np.ndarray, ...]] = []
    beta_blocks: list[tuple[np.ndarray, ...]] = []
    for ci, cell in enumerate(cells):
        gens = [np.asarray(v, dtype=float) for v in e_generators[ci]]
        n_e = len(gens)
        gens += [np.asarray(v, dtype=float) for v in beta_generators[ci]]
        if complete and len(gens) < len(cell):
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
        e_blocks.append(tuple(ortho[:n_e]))
        beta_blocks.append(tuple(ortho[n_e:]))
    return BlockStructure(space, tuple(tuple(c) for c in cells),
                          tuple(e_blocks), tuple(beta_blocks))


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
        [[], [], []],
        complete=True)


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

    For each sampled position, each cell i and each e-vector e^i_k, the
    coordinate ``<rho(X), e^i_k>`` must be unchanged when X is replaced by
    its projection onto the cell (e-part plus beta-part). ``samples`` counts
    the e-vector comparisons made. Each position and its cell projections
    are one stacked call.
    """
    gen = _rng(rng)
    inner = block.space.inner
    rounds = max(1, budget // max(1, block.k))
    # the comparisons of one round, in order: (cell, e_index, e-vector)
    comparisons = [(ci, ki, e) for ci, eb in enumerate(block.e_blocks)
                   for ki, e in enumerate(eb)]
    for r in range(rounds):
        x = gen.uniform(-3.0, 3.0, block.space.n)
        out, error = _stacked(rho, np.array(
            [x] + [block.cell_projection_argument(x, ci)
                   for ci in range(block.k)]))
        if not len(out):
            raise error
        gaps = np.array([abs(inner(out[0], e) - inner(out[1 + ci], e))
                         for ci, _, e in comparisons if ci < len(out) - 1])
        j = _first_failure(gaps > tol, error)
        if j is not None:
            ci, ki, _ = comparisons[j]
            return PropertyReport(
                "basis-locality", CheckVerdict.FAIL,
                witness={"x": _vec(x), "cell": ci, "e_index": ki,
                         "violation": float(gaps[j])},
                samples=r * len(comparisons) + j + 1, tol=tol)
    return PropertyReport("basis-locality", CheckVerdict.PASS,
                          samples=rounds * len(comparisons), tol=tol)


# ---------------------------------------------------------------------------
# the cone preorder
# ---------------------------------------------------------------------------

def cone_leq(y: np.ndarray, v: np.ndarray, block: BlockStructure) -> bool:
    """``y`` below ``v`` in the preorder: every e-coordinate gap >= -1e-12."""
    ey = block.e_coordinates(y)
    ev = block.e_coordinates(v)
    return bool(np.all(ev - ey >= -1e-12))


def check_cone_self_dual(block: BlockStructure, budget: int = 200,
                         rng=0) -> PropertyReport:
    """Spot-check that the ordering cone equals its dual cone.

    Nonnegative-coordinate samples must have inner products of at least
    ``-CONE_TOL`` with each other; a sample with a negative coordinate must
    be excluded from the dual cone by the corresponding e-vector itself.
    """
    gen = _rng(rng)
    if any(len(e) != 1 for e in block.e_blocks):
        raise AssumptionViolatedError("cone checks need 1-dimensional e-blocks")
    es = [e[0] for e in block.e_blocks]
    k = block.k
    checked = 0
    for _ in range(budget):
        y_coords = gen.uniform(0.0, 3.0, k)
        v_coords = gen.uniform(0.0, 3.0, k)
        y = sum(c * e for c, e in zip(y_coords, es))
        v = sum(c * e for c, e in zip(v_coords, es))
        checked += 1
        if block.space.inner(y, v) < -CONE_TOL:
            return PropertyReport(
                "cone-self-dual", CheckVerdict.FAIL,
                witness={"y_coords": _vec(y_coords), "v_coords": _vec(v_coords),
                         "inner": block.space.inner(y, v)},
                samples=checked, tol=CONE_TOL)
        neg_coords = gen.uniform(0.0, 3.0, k)
        j = int(gen.integers(0, k))
        neg_coords[j] = -gen.uniform(0.5, 2.0)
        yneg = sum(c * e for c, e in zip(neg_coords, es))
        checked += 1
        if block.space.inner(yneg, es[j]) >= 0.0:
            return PropertyReport(
                "cone-self-dual", CheckVerdict.FAIL,
                witness={"y_coords": _vec(neg_coords), "witness_cell": j,
                         "inner": block.space.inner(yneg, es[j])},
                samples=checked, tol=CONE_TOL)
    return PropertyReport("cone-self-dual", CheckVerdict.PASS, samples=checked,
                          tol=CONE_TOL)


def check_convexity_wrt_preorder(rho: RiskMeasureOracle, block: BlockStructure,
                                 *, triples, tol: float = DEFAULT_CHECK_TOL
                                 ) -> PropertyReport:
    """Jensen inequality in every e-coordinate over the triples."""
    table = _triple_table(rho, triples)
    return _excess_check("convexity-wrt-preorder", table,
                         *_e_coordinates(block, table), _jensen_bound, tol)


def _e_coordinates(block: BlockStructure, table):
    """:meth:`TripleTable.read` with each output replaced by its
    e-coordinates (one inner product per cell and output)."""
    risks, error = table.read()
    return np.array([[block.e_coordinates(r) for r in triple]
                     for triple in risks]).reshape(-1, 3, block.k), error


def check_nqc_wrt_preorder(rho: RiskMeasureOracle, block: BlockStructure,
                           *, triples, tol: float = DEFAULT_CHECK_TOL,
                           rng=0) -> PropertyReport:
    """Natural quasiconvexity with respect to the e-coordinate preorder.

    Mixing-weight feasibility runs on e-coordinate vectors exactly as the
    atom-value check does on atom values; e-blocks must be one-dimensional.
    When the check passes, the report details also record convexity with
    respect to the preorder on the same triples together with the
    normalization and basis-locality hypotheses (the latter on a budget of
    24 drawn from ``rng``), so the implication "naturally quasiconvex and
    local and normalized implies convex" can be read off the report.
    """
    if any(len(e) != 1 for e in block.e_blocks):
        raise AssumptionViolatedError(
            "the preorder feasibility check needs 1-dimensional e-blocks")
    table = _triple_table(rho, triples)
    values, error = _e_coordinates(block, table)
    i = _first_failure(_mu_infeasible(*values.transpose(1, 0, 2), tol), error)
    if i is not None:
        ex, ey, em = values[i]
        x, y, lam = table.triples[i]
        return PropertyReport(
            "nqc-wrt-preorder", CheckVerdict.FAIL,
            witness={"x": _vec(x), "y": _vec(y), "lam": lam,
                     "e_x": _vec(ex), "e_y": _vec(ey), "e_mix": _vec(em),
                     "certificate": _mu_feasibility(ex, ey, em, tol)[1]},
            samples=i + 1, tol=tol)
    conv = check_convexity_wrt_preorder(rho, block, triples=table, tol=tol)
    zero = rho(np.zeros(block.space.n))
    normalized = bool(np.max(np.abs(zero)) <= 1e-9)
    loc = check_basis_locality(rho, block, budget=24, tol=tol, rng=rng)
    hypotheses = normalized and loc.passed
    return PropertyReport(
        "nqc-wrt-preorder", CheckVerdict.PASS, samples=len(table), tol=tol,
        details={
            "convexity_wrt_preorder": conv.verdict.value,
            "normalized": normalized,
            "basis_local": loc.passed,
            "implication_holds": (not hypotheses) or conv.passed,
        })
