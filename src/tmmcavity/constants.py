"""Physical constants in SI units (CODATA 2018 exact values).

Bit-identical to `scipy.constants`, without the cost of importing scipy.
"""

import math

c = 299792458.0  # speed of light, m/s
h = 6.62607015e-34  # Planck constant, J s
hbar = h / (2 * math.pi)  # reduced Planck constant, J s
k = 1.380649e-23  # Boltzmann constant, J/K
