"""Finite probability spaces, atom partitions and conditional expectation.

Positions are plain numpy vectors indexed by outcome. All inner products
are probability weighted: ``<X, Y> = E[X Y]``; on a finite space every L^p
coincides, so the exponent never appears. A conditioning sigma-algebra is
an atom partition of the outcome set. A partition carries an atom index
built once, so the conditional expectation and the measurability check
take a fixed number of numpy calls whatever the number of atoms, and both
are row-wise: a stack of positions ``(m, n)`` gives each row the bits of
its own call. Scenario and partition text files are read here too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Measurability tolerance applied to every risk-measure output.
MEASURABILITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# spaces, partitions, conditional expectation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteProbSpace:
    """Outcome probabilities; all positive, summing to one. ``p`` holds them
    once more as a read-only array."""

    probs: tuple[float, ...]

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise ValueError("probs must be a nonempty vector")
        if not (p > 0).all():  # NaN fails too
            raise ValueError("all outcome probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", tuple(float(v) for v in p))
        object.__setattr__(self, "_p", p)

    @staticmethod
    def uniform(n: int) -> "FiniteProbSpace":
        return FiniteProbSpace(tuple([1.0 / n] * n))

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def p(self) -> np.ndarray:
        return self._p

    def expectation(self, x: np.ndarray) -> float:
        return float(np.dot(self.p, np.asarray(x, dtype=float)))

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        """Probability-weighted inner product ``E[x y]``."""
        return float(np.dot(self.p, np.asarray(x) * np.asarray(y)))

    def norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self.inner(x, x), 0.0))


@dataclass(frozen=True)
class PartitionSigma:
    """A sub-sigma-algebra given as a partition of outcome indices, with a
    read-only atom index: ``labels[i]`` is the atom of outcome ``i``;
    ``_order`` lists the outcomes atom by atom, atom ``j`` from position
    ``_starts[j]`` on; ``_first[j]`` is the first outcome of atom ``j``."""

    atoms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        if not self.atoms:
            raise ValueError("partition needs at least one atom")
        norm = []
        for atom in self.atoms:
            atom = tuple(sorted(int(i) for i in atom))
            if not atom:
                raise ValueError("empty atom")
            if len(set(atom)) < len(atom):
                raise ValueError("an atom lists an outcome twice")
            if seen & set(atom):
                raise ValueError("atoms overlap")
            seen |= set(atom)
            norm.append(atom)
        if seen != set(range(len(seen))) or min(seen) != 0:
            raise ValueError("atoms must cover 0..n-1 exactly")
        sizes = [len(a) for a in norm]
        order = np.concatenate(norm).astype(np.intp)
        starts = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        labels = np.repeat(np.arange(len(norm)), sizes)[np.argsort(order)]
        index = {"labels": labels, "_order": order, "_starts": starts,
                 "_first": order[starts]}
        for name, value in index.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "atoms", tuple(norm))
        object.__setattr__(self, "_atom_probs", (None, None))
        object.__setattr__(self, "_stacked", [labels])

    @staticmethod
    def of(*atoms: Iterable[int]) -> "PartitionSigma":
        return PartitionSigma(tuple(tuple(a) for a in atoms))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        return len(self.atoms)

    def atom_probs(self, space: FiniteProbSpace) -> np.ndarray:
        """Per-atom probabilities (read-only). Those of the last space asked
        for are kept, so a run of calls with one space computes them once."""
        held, probs = self._atom_probs
        if space is not held and space != held:
            p = space.p
            probs = np.array([p[list(a)].sum() for a in self.atoms])
            probs.setflags(write=False)
            object.__setattr__(self, "_atom_probs", (space, probs))
        return probs

    def measurability_spread(self, x: np.ndarray) -> tuple[float, int]:
        """Largest within-atom spread and the first atom where it occurs;
        ``(0.0, 0)`` when no atom has a positive spread (NaN spreads are
        ignored)."""
        spread = self.atom_spreads(x)
        where = int(np.argmax(spread))
        return (float(spread[where]), where) if spread[where] > 0.0 else (0.0, 0)

    def atom_spreads(self, x: np.ndarray) -> np.ndarray:
        """Each atom's spread ``max - min`` (0 where it is NaN), row-wise:
        ``(..., n)`` to ``(..., k)``."""
        xs = np.asarray(x, dtype=float)[..., self._order]
        return np.fmax(np.maximum.reduceat(xs, self._starts, axis=-1)
                       - np.minimum.reduceat(xs, self._starts, axis=-1), 0.0)

    def atom_values(self, x: np.ndarray) -> np.ndarray:
        """One representative value per atom (for measurable vectors),
        row-wise on ``(..., n)``."""
        return np.asarray(x, dtype=float)[..., self._first]

    def from_atom_values(self, vals: Sequence[float]) -> np.ndarray:
        """Each atom's value on its outcomes, row-wise: ``(..., k)`` to
        ``(..., n)``, C-contiguous."""
        return np.take(np.asarray(vals, dtype=float), self.labels, axis=-1)

    def indicator(self, atom_index: int) -> np.ndarray:
        return self.event_indicator((atom_index,))

    def event_indicator(self, atom_indices: Iterable[int]) -> np.ndarray:
        on = np.zeros(self.k)
        on[list(atom_indices)] = 1.0
        return on[self.labels]

    def refines(self, other: "PartitionSigma") -> bool:
        """True when every atom of self sits inside an atom of other."""
        return all(any(set(a) <= set(b) for b in other.atoms) for a in self.atoms)


def atom_means(x: np.ndarray, sigma: PartitionSigma,
               space: FiniteProbSpace) -> np.ndarray:
    """Atom means ``E[X 1_A] / P(A)``, row-wise: ``(..., n)`` to ``(..., k)``.

    Any input is a stack of ``m`` rows (a single row is a stack of one),
    evaluated by one ``bincount`` over the labels offset by ``k`` per row;
    the partition keeps them for its largest stack so far, and a smaller
    stack reads their prefix. Each bin adds its terms in outcome order, and
    there is no other path, so every row gets the bits of its own call.
    """
    x = np.asarray(x, dtype=float)
    rows = x.reshape(-1, sigma.n)
    m, k = len(rows), sigma.k
    labels = sigma._stacked[0]
    if len(labels) < m * sigma.n:  # kept for the largest stack
        labels = (sigma.labels + k * np.arange(m)[:, None]).ravel()
        sigma._stacked[0] = labels
    sums = np.bincount(labels[:m * sigma.n], (space.p * rows).ravel(), m * k)
    means = sums.reshape(m, k) / sigma.atom_probs(space)
    return means.reshape(x.shape[:-1] + (k,))


def conditional_expectation(x: np.ndarray, sigma: PartitionSigma,
                            space: FiniteProbSpace) -> np.ndarray:
    """:func:`atom_means` broadcast back to the outcomes, row-wise on
    ``(..., n)``; a map of the means can apply itself before the broadcast."""
    return sigma.from_atom_values(atom_means(x, sigma, space))


# ---------------------------------------------------------------------------
# scenario and partition files
# ---------------------------------------------------------------------------

def _data_lines(path):
    """The lines of a data file, without comments and blank lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                yield line


def load_scenario_table(path) -> tuple[FiniteProbSpace, list[str]]:
    """One outcome per row: probability, then an optional label."""
    probs: list[float] = []
    labels: list[str] = []
    for line in _data_lines(path):
        parts = line.split()
        probs.append(float(parts[0]))
        labels.append(parts[1] if len(parts) > 1 else f"w{len(probs)}")
    return FiniteProbSpace(tuple(probs)), labels


def _parse_index_list(text: str) -> list[int]:
    """1-based indices and ranges: ``1 2 5-7`` -> [0, 1, 4, 5, 6]. A token
    other than ``N`` or ``N-M`` in ASCII digits, an outcome number below 1,
    or a range that ends below its start, is an error."""
    out: list[int] = []
    for tok in text.replace(",", " ").split():
        match = re.fullmatch(r"([0-9]+)(?:-([0-9]+))?", tok)
        if match is None:
            raise ValueError(f"{tok!r} is not an outcome number N or a "
                             "range N-M")
        a, b = int(match[1]), int(match[2] or match[1])
        if a < 1:
            raise ValueError(f"{tok!r} names outcome {a}: outcomes are "
                             "numbered from 1")
        if b < a:
            raise ValueError(f"range {tok!r} ends below its start")
        out.extend(range(a - 1, b))
    return out


def load_partition(path) -> PartitionSigma:
    """One atom per row, as 1-based outcome indices or ranges."""
    return PartitionSigma(tuple(tuple(_parse_index_list(line))
                                for line in _data_lines(path)))


def parse_partition_text(text: str) -> PartitionSigma:
    """Semicolon-separated atoms of 1-based indices: ``1-4; 5-7; 8-10``."""
    atoms = [tuple(_parse_index_list(part))
             for part in text.split(";") if part.strip()]
    return PartitionSigma(tuple(atoms))
