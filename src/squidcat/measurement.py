"""Ideal projective charge measurement and cavity post-selection.

Measuring the qubit in the charge basis projects the cavity onto the
corresponding block; post-selecting on the ground (excited) outcome of a
cat-generating evolution leaves the even (odd) superposition.  Readout is
modeled as ideal and instantaneous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    Branch,
    BranchDecomposition,
    CoherentLabel,
    coherent_overlap,
    materialize,
)
from .constants import ZERO_PROBABILITY_THRESHOLD
from .errors import NullOutcomeError
from .hilbert import QUBIT_AMPLITUDES, CavityState, JointState

__all__ = [
    "AnalyticPost",
    "MeasurementRecord",
    "measure_qubit",
    "parity_spectrum",
    "measurement_record_to_dict",
]


@dataclass(frozen=True)
class AnalyticPost:
    """Post-selected cavity state in label form: constant * sum of weighted labels.

    The weights retain their pre-measurement values; ``constant`` is the
    reciprocal of the combination's norm, so the materialized product has
    unit norm.
    """

    constant: float
    branches: tuple[Branch, ...]


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome, its probability, and the renormalized post-selected cavity state."""

    outcome: str
    probability: float
    post_state: CavityState
    analytic_post: AnalyticPost | None = None


def _measure_joint(state: JointState, outcome: str) -> MeasurementRecord:
    block = state.qubit_block(outcome)
    probability = float(np.real(np.vdot(block, block)))
    if probability < ZERO_PROBABILITY_THRESHOLD:
        raise NullOutcomeError(
            f"outcome {outcome!r} has probability {probability:.3e}; no post-state exists"
        )
    post = CavityState(block / math.sqrt(probability), leakage=state.leakage)
    return MeasurementRecord(outcome=outcome, probability=probability, post_state=post)


def _collapse_branches(state: BranchDecomposition, outcome: str) -> list[Branch]:
    index = ("g", "e").index(outcome)
    collected: list[Branch] = []
    for branch in state.branches:
        factor = float(QUBIT_AMPLITUDES[branch.qubit][index].real)  # the basis amplitudes are real
        if factor:
            collected.append(Branch(outcome, branch.weight * factor, branch.label))
    return collected


def _measure_decomposition(
    state: BranchDecomposition, outcome: str, joint: JointState | None
) -> MeasurementRecord:
    record = _measure_joint(materialize(state) if joint is None else joint, outcome)

    collected = _collapse_branches(state, outcome)
    norm2 = None
    if all(isinstance(b.label, CoherentLabel) for b in collected):
        # Gram-matrix norm of the label combination, exact in closed form.
        norm2 = 0.0
        for bj in collected:
            for bk in collected:
                norm2 += (
                    np.conj(bj.coefficient)
                    * bk.coefficient
                    * coherent_overlap(bj.label, bk.label)
                ).real
    else:
        norm2 = record.probability
    if norm2 < ZERO_PROBABILITY_THRESHOLD:
        raise NullOutcomeError(
            f"outcome {outcome!r} has probability {norm2:.3e}; no post-state exists"
        )
    analytic_post = AnalyticPost(constant=1.0 / math.sqrt(norm2), branches=tuple(collected))
    return MeasurementRecord(
        outcome=outcome,
        probability=record.probability,
        post_state=record.post_state,
        analytic_post=analytic_post,
    )


def measure_qubit(
    state: JointState | BranchDecomposition, outcome: str, *, joint: JointState | None = None
) -> MeasurementRecord:
    """Project the qubit onto ``outcome`` ('g' or 'e') and renormalize the cavity.

    For branch decompositions, the record additionally carries the
    post-selected label combination with its closed-form normalization;
    ``joint`` may hold the decomposition already materialized, which is then
    measured instead of materializing it again.  Outcomes below the 1e-14
    probability threshold raise NullOutcomeError.
    """
    if outcome not in ("g", "e"):
        raise ValueError(f"outcome must be 'g' or 'e', got {outcome!r}")
    if isinstance(state, JointState):
        return _measure_joint(state, outcome)
    if isinstance(state, BranchDecomposition):
        return _measure_decomposition(state, outcome, joint)
    raise TypeError(f"cannot measure object of type {type(state).__name__}")


def parity_spectrum(state: CavityState) -> tuple[float, float]:
    """Population in even and odd Fock levels; the two weights sum to one."""
    probs = np.abs(state.amplitudes) ** 2
    even = float(probs[0::2].sum())
    odd = float(probs[1::2].sum())
    return even, odd


def measurement_record_to_dict(record: MeasurementRecord) -> dict:
    from .analytic import _label_to_dict  # local import to avoid a cycle at module load

    data: dict = {
        "outcome": record.outcome,
        "probability": record.probability,
        "post_state": {
            "fock_amplitudes": [[z.real, z.imag] for z in record.post_state.amplitudes]
        },
        "analytic_post": None,
    }
    if record.analytic_post is not None:
        data["analytic_post"] = {
            "constant": record.analytic_post.constant,
            "terms": [
                {
                    "weight": [b.weight.real, b.weight.imag],
                    "label": _label_to_dict(b.label),
                }
                for b in record.analytic_post.branches
            ],
        }
    return data
