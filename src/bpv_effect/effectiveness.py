"""Fuzzy Pareto screening of a finite sequence of security profiles.

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

``build_report`` reads each ``SecurityProfile``'s fuzzy return, variance,
energy and entropy, and returns both matrices and both score vectors,
indexed in the order of the profiles it is given.  It computes dominance
only for pairs passing the plain variance gate (about half), in one batched
α-cut pass through ``membership.dominance_matrix``, the one dominance entry
point: cut tables in O(knots) per security, then O(log knots) numpy steps
per block of rows, whose gated pairs are generated as the block is solved.
Of its arrays only the left α-cut table, the gates and the two matrices
span the universe; a right α-cut table, the pairs' temporaries and the
Pareto scores' n-wide temporaries span one block of rows (``PAIR_BLOCK // n``
rows for the scores).
"""

from typing import NamedTuple

import numpy as np

from .membership import PAIR_BLOCK, dominance_matrix


class EffectivenessReport(NamedTuple):
    """Outranking matrices (n x n) and Pareto memberships (n) of n profiles."""

    outranking: np.ndarray
    strict_outranking: np.ndarray
    effectiveness: np.ndarray
    strict_effectiveness: np.ndarray


def _pareto_scores(matrix: np.ndarray, step: int) -> np.ndarray:
    """min over j of max(M[i, j], 1 - M[j, i]), for ``step`` rows i at a time."""
    return np.concatenate([np.maximum(matrix[i:i + step], 1.0 - matrix[:, i:i + step].T).min(axis=1)
                           for i in range(0, len(matrix), step)])


def build_report(profiles) -> EffectivenessReport:
    """Both matrices plus both score vectors of a nonempty sequence of
    profiles; the diagonal is each rho's peak."""
    if not profiles:
        raise ValueError("universe must be nonempty")
    rhos = [p.rho for p in profiles]
    variance = np.array([p.variance for p in profiles])
    energy = np.array([p.energy for p in profiles])
    entropy = np.array([p.entropy for p in profiles])
    gate = variance[:, None] <= variance[None, :]
    outranking = dominance_matrix(rhos, gate)
    strict_gate = gate & (energy[:, None] <= energy[None, :]) & (entropy[:, None] <= entropy[None, :])
    strict = np.where(strict_gate, outranking, 0.0)
    step = max(1, PAIR_BLOCK // len(profiles))
    return EffectivenessReport(outranking, strict, _pareto_scores(outranking, step), _pareto_scores(strict, step))
