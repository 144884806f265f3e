"""Fuzzy Pareto screening of a finite universe of securities.

Pairwise comparison: security Y outranks Z to the degree that Y's fuzzy
expected return dominates Z's, but only when Y's risk is no worse --
variance alone for the plain comparison, variance plus both imprecision
measures for the strict one.  The crisp risk gates multiply the fuzzy
dominance degree by 0 or 1, so the strict matrix never exceeds the plain
one entrywise.

From a pairwise matrix M the Pareto membership of security i is
min over j of max(M[i, j], 1 - M[j, i]): the degree to which no other
security strictly beats it.  Self-comparison is included; for a normal
membership it contributes max(1, 0) = 1 and is inert.

``build_report`` computes dominance only for pairs passing the plain
variance gate (about half), all in one batched α-cut pass: cut tables in
O(knots) per security, then O(log knots) numpy steps over all pairs.
"""

from dataclasses import dataclass

import numpy as np

from .membership import dominance_pairs
from .returns import SecurityProfile


@dataclass(frozen=True, eq=False)
class Universe:
    """Finite collection of securities with unique ids."""

    ids: tuple[str, ...]
    profiles: tuple[SecurityProfile, ...]

    def __post_init__(self):
        if len(self.ids) == 0:
            raise ValueError("universe must be nonempty")
        if len(self.ids) != len(self.profiles):
            raise ValueError("ids and profiles must have matching lengths")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("security ids must be unique")

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class EffectivenessReport:
    """Pairwise outranking matrices and per-security Pareto memberships."""

    ids: tuple[str, ...]
    outranking: np.ndarray
    strict_outranking: np.ndarray
    effectiveness: np.ndarray
    strict_effectiveness: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        shapes = {
            "outranking": (n, n),
            "strict_outranking": (n, n),
            "effectiveness": (n,),
            "strict_effectiveness": (n,),
        }
        for name, shape in shapes.items():
            array = np.array(getattr(self, name), dtype=float, copy=True)
            if array.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            if array.min() < 0.0 or array.max() > 1.0:
                raise ValueError(f"{name} entries must lie in [0, 1]")
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if np.any(self.strict_outranking > self.outranking):
            raise ValueError("strict outranking cannot exceed plain outranking")


def _pareto_scores(matrix: np.ndarray) -> np.ndarray:
    return np.maximum(matrix, 1.0 - matrix.T).min(axis=1)


def build_report(universe: Universe) -> EffectivenessReport:
    """Both matrices plus both score vectors; the diagonal is each rho's peak."""
    rhos = [p.rho for p in universe.profiles]
    variance = np.array([p.variance for p in universe.profiles])
    energy = np.array([p.energy for p in universe.profiles])
    entropy = np.array([p.entropy for p in universe.profiles])
    gate = variance[:, None] <= variance[None, :]
    strict_gate = gate & (energy[:, None] <= energy[None, :]) & (entropy[:, None] <= entropy[None, :])
    outranking = np.diag([rho.peak for rho in rhos])
    rows, cols = np.nonzero(gate & ~np.eye(universe.size, dtype=bool))
    outranking[rows, cols] = dominance_pairs(rhos, rows, cols)
    strict = np.where(strict_gate, outranking, 0.0)
    return EffectivenessReport(
        ids=universe.ids,
        outranking=outranking,
        strict_outranking=strict,
        effectiveness=_pareto_scores(outranking),
        strict_effectiveness=_pareto_scores(strict),
    )
