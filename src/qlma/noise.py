"""Analytic success-probability estimates from per-gate error rates.

The estimate is the plain product of per-operation survival factors:
(1 - p1)^n1 * (1 - p2)^n2 * (1 - p_meas)^m.  Depth-dependent coherence
loss is deliberately out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ErrorRates:
    """Per-operation error probabilities, each in [0, 1)."""

    one_qubit_gate: float
    two_qubit_gate: float
    measurement: float = 0.0

    def __post_init__(self):
        for name in ("one_qubit_gate", "two_qubit_gate", "measurement"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} rate {rate} outside [0, 1)")


# Nominal public-device rates and the best published mitigated rates; the
# measurement figure is a reported per-qubit readout average.
RATE_PRESETS = {
    "ibmq": ErrorRates(1e-3, 1e-2, 0.0812),
    "experimental": ErrorRates(1e-5, 5e-3, 0.0812),
}

# Baseline per-kind gate tally for hardware estimates of the 12-parameter pipeline at its
# reference configuration; a controlled kind ("c...") counts as a two-qubit gate, as in hhl_gate_tally.
REFERENCE_GATE_TALLY = {"x": 24, "u": 30, "h": 6, "cu": 42, "cx": 76}
_TWO_QUBIT = sum(n for kind, n in REFERENCE_GATE_TALLY.items() if kind.startswith("c"))
REFERENCE_COUNTS = (sum(REFERENCE_GATE_TALLY.values()) - _TWO_QUBIT, _TWO_QUBIT)


def success_probability(counts: tuple[int, int], measured_qubits: int, rates: ErrorRates) -> float:
    """Probability that every gate and measurement succeeds."""
    n1, n2 = counts
    if n1 < 0 or n2 < 0 or measured_qubits < 0:
        raise ValueError("counts must be nonnegative")
    return (
        (1.0 - rates.one_qubit_gate) ** n1
        * (1.0 - rates.two_qubit_gate) ** n2
        * (1.0 - rates.measurement) ** measured_qubits
    )


def repeated_success(p_single: float, iterations: int) -> float:
    """Probability of `iterations` consecutive successful runs."""
    if not 0.0 <= p_single <= 1.0:
        raise ValueError("p_single must lie in [0, 1]")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    return p_single**iterations
