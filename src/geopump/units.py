"""Unit conventions.

Model units set the lattice hopping to 1; energies are measured in units of
ENERGY_UNIT_MEV and times in hbar / ENERGY_UNIT_MEV. The default drive
frequency makes one drive cycle last TAU_CYCLE_PS.
"""

from __future__ import annotations

import math

HBAR_MEV_PS = 0.6582119569

# 1 model energy unit in meV
ENERGY_UNIT_MEV = 100.0

# one drive cycle, laboratory picoseconds
TAU_CYCLE_PS = 0.83

K_BOLTZMANN_MEV_PER_K = 0.08617

# angular drive frequency (rad per model time unit) of one TAU_CYCLE_PS cycle
DEFAULT_OMEGA = 2.0 * math.pi * (HBAR_MEV_PS / ENERGY_UNIT_MEV) / TAU_CYCLE_PS
