"""The package's stated numerical tolerances, collected in one place.

These values are what every returned number and every verify check is held
to; they are fixed, not settings, and nothing in the package overrides them.
Each consumer reads ``DEFAULT_TOLS.<field>`` directly.  Scale-aware use is up
to the consumer: residual-type checks multiply by (1 + |lambda|), the
positivity dead band by max u; the wall's ``agmon`` is scale-free.  No sign
test has a dead band: u_dot's nodal point counts every nonzero value.  The FD
step's floor is ``h_t_factor``; the oracle lengthens the step where lambda's
rounding would swamp its second difference (``sensitivity._fd_step``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-12        # | ||u|| - 1 |
    res: float = 1e-8          # eigen-residual, times (1 + |lambda|)
    match: float = 1e-5        # flux vs integral first derivative, times (1 + |ld|)
    orth: float = 1e-10        # |integral of u * u_dot|
    agmon: float = 25.0        # Agmon distance to the a = -inf wall: u ~ e^-25 there
    thm_factor: float = 10.0   # tol_thm = thm_factor * h^2 * max|lambda|
    pos: float = 1e-9          # positivity dead band, times max u
    h_t_factor: float = 1e-3   # FD step floor: h_t >= h_t_factor * (t - a_eff)


DEFAULT_TOLS = Tolerances()
