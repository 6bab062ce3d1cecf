"""SI physical constants, CODATA 2022.

Literals, so that the package needs numpy only at run time; they equal
scipy.constants bit for bit (tests/test_package.py pins them).
"""

c = 299792458.0                  # speed of light in vacuum, m/s, exact
mu_0 = 1.25663706127e-06         # vacuum permeability, N/A^2
hbar = 1.0545718176461565e-34    # reduced Planck constant, J s, exact
epsilon_0 = 8.8541878188e-12     # vacuum permittivity, F/m
