"""E-PUR accelerator configuration (paper Table 2).

Default values are Table 2 verbatim: a 28 nm, 500 MHz accelerator with
four computation units (one per LSTM gate), 2 MiB weight buffer per CU,
8 KiB input buffers, a 6 MiB intermediate-results memory, and the fuzzy
memoization unit (FMU) with a 2048-bit binary dot-product unit, 5-cycle
latency and an 8 KiB memoization buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class FMUConfig:
    """Fuzzy Memoization Unit parameters (Table 2, bottom half)."""

    bdpu_width_bits: int = 2048
    latency_cycles: int = 5
    #: Pipelined issue interval: the BDPU accepts a new neuron each cycle
    #: (its 5-cycle latency is fill, not occupancy).  §5 discusses the
    #: per-neuron overhead; the ablation bench varies this.
    issue_cycles: int = 1
    integer_width_bytes: int = 2
    memo_buffer_bytes: int = 8 * KIB

    def __post_init__(self):
        if self.bdpu_width_bits <= 0 or self.latency_cycles < 0:
            raise ValueError("invalid FMU configuration")
        if self.issue_cycles <= 0:
            raise ValueError("issue_cycles must be positive")


@dataclass(frozen=True)
class EPURConfig:
    """Top-level accelerator parameters (Table 2, top half)."""

    technology_nm: int = 28
    frequency_hz: float = 500e6
    num_cus: int = 4
    dpu_width: int = 16  # MAC lanes per dot-product unit
    weight_buffer_bytes: int = 2 * MIB  # per CU
    input_buffer_bytes: int = 8 * KIB  # per CU
    intermediate_memory_bytes: int = 6 * MIB
    weight_bits: int = 16  # FP16 weights
    fmu: FMUConfig = field(default_factory=FMUConfig)

    def __post_init__(self):
        if self.dpu_width <= 0:
            raise ValueError("dpu_width must be positive")
        if self.num_cus <= 0:
            raise ValueError("num_cus must be positive")
        if self.weight_bits not in (16, 32):
            raise ValueError("E-PUR supports 16- or 32-bit weights")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def cycle_seconds(self) -> float:
        return 1.0 / self.frequency_hz


#: The configuration used throughout the paper's evaluation.
DEFAULT_CONFIG = EPURConfig()
