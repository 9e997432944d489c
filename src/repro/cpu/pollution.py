"""Microarchitectural-pollution model.

The paper's indirect cost of OS-based demand paging (§II-B, Figures 4/14):
frequent exceptions drag kernel code and data through the caches, TLBs and
branch predictor, lowering the *user-level* IPC and raising user-level miss
rates.  FlexSC [66] — which the paper cites for this effect — measured the
same phenomenon for system calls.

We model the effect with one scalar ``p ∈ [0, 1]`` per *physical* core
(L1/L2 and the branch predictor are shared by SMT siblings):

* executing ``k`` kernel instructions moves ``p`` toward 1 with rate
  ``1/pollution_saturation_instr``;
* executing ``u`` user instructions decays ``p`` exponentially with scale
  ``pollution_decay_instr``;
* user IPC is scaled by ``1 − pollution_ipc_penalty · p`` and user-level
  miss rates by ``1 + sensitivity · p``.

Constants are calibrated so a fault-per-few-ops OSDP run shows a user-IPC
deficit of roughly 7 % against HWDP, matching Figure 14.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.config import CpuConfig

_exp = math.exp


class PollutionState:
    """Pollution scalar for one physical core.

    The config constants are mirrored into instance floats at build time.
    :meth:`decay` and :meth:`add_kernel_work` are the reference updates:
    :class:`repro.cpu.thread.ThreadContext` inlines the same float
    expressions into every compute quantum and kernel phase, and reads
    ``value`` and the mirrored constants directly.
    """

    def __init__(self, config: CpuConfig):
        self.config = config
        self.value = 0.0
        self._saturation_instr = config.pollution_saturation_instr
        self._decay_instr = config.pollution_decay_instr
        self._ipc_penalty = config.pollution_ipc_penalty

    def add_kernel_work(self, instructions: float) -> None:
        """Kernel execution pushes pollution toward saturation."""
        if instructions <= 0:
            return
        gain = 1.0 - _exp(-instructions / self._saturation_instr)
        self.value += (1.0 - self.value) * gain

    def decay(self, user_instructions: float) -> None:
        """User execution gradually re-warms user state."""
        if user_instructions <= 0:
            return
        self.value *= _exp(-user_instructions / self._decay_instr)

    def ipc_factor(self) -> float:
        """Multiplier on user IPC under the current pollution."""
        return 1.0 - self._ipc_penalty * self.value

    def miss_rate(self, event: str) -> float:
        """User-level misses of ``event`` kind per kilo-instruction."""
        base = self.config.miss_rates_per_kinstr[event]
        sensitivity = self.config.miss_pollution_sensitivity[event]
        return base * (1.0 + sensitivity * self.value)

    def miss_rates(self) -> Dict[str, float]:
        return {event: self.miss_rate(event) for event in self.config.miss_rates_per_kinstr}
