"""Physical constants and unit helpers.

Internal unit system: energies in eV, lengths in nm, times in seconds,
frequencies in Hz, magnetic fields in tesla. Interfaces that take or
return nanoseconds, GHz, mV or ueV say so in their names.
"""

import math

# CODATA 2018
Q_E = 1.602176634e-19          # elementary charge, C
H_PLANCK = 6.62607015e-34      # J s
HBAR = 1.054571817e-34         # J s
M_E = 9.1093837015e-31         # electron mass, kg
K_B_EV = 8.617333262e-5        # Boltzmann constant, eV/K
MU_B = 9.2740100783e-24        # Bohr magneton, J/T
EPS0 = 8.8541878128e-12        # vacuum permittivity, F/m

# hbar^2 / (2 m0) in eV nm^2; kinetic prefactor of the effective-mass model
HBAR2_OVER_2M0 = HBAR**2 / (2.0 * M_E) / Q_E * 1e18

# Coulomb energy scale e^2/(4 pi eps0) in eV nm
COULOMB_EV_NM = Q_E / (4.0 * math.pi * EPS0) * 1e9

# q / eps0 in eV nm (source prefactor of the Poisson equation with
# densities in nm^-3 and energies in eV)
Q_OVER_EPS0_EV_NM = Q_E / EPS0 * 1e9

# Spin resonance conversion: g * mu_B / h in Hz per tesla (g = 2.0 for Si)
G_FACTOR_SI = 2.0
MU_B_OVER_H = MU_B / H_PLANCK                    # Hz/T
ZEEMAN_HZ_PER_T = G_FACTOR_SI * MU_B_OVER_H      # ~27.992 GHz/T

EV_TO_HZ = Q_E / H_PLANCK      # 1 eV in Hz
UEV_TO_HZ = 1e-6 * EV_TO_HZ
