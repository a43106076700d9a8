"""Independent oracles used by the tests.

Everything here is written from the defining formulas, deliberately not
reusing the production code paths it is used to check: a brute-force stencil
for the diffusion operator, bisection on the reaction trajectory equation,
and an RK4 integrator for the reaction-only ODE.
"""

from __future__ import annotations

import numpy as np


def stencil_laplacian_1d(values: np.ndarray, h: float, d_face) -> np.ndarray:
    """Direct 3-point flux stencil with explicit indexing, periodic wrap.

    ``d_face[i]`` is the coefficient on the face between cells i and i+1;
    a scalar means a constant coefficient.
    """
    n = values.shape[0]
    d_face = np.broadcast_to(np.asarray(d_face, dtype=float), (n,))
    out = np.empty_like(values)
    for i in range(n):
        right = d_face[i] * (values[(i + 1) % n] - values[i]) / h
        left = d_face[i - 1] * (values[i] - values[(i - 1) % n]) / h
        out[i] = (right - left) / h
    return out


def trajectory_residual(r, a, b, c, dt, a_inf=1.0, b_inf=1.0, c_inf=1.0):
    """The log-form reaction equation, written out from its definition."""
    return (
        np.log(r / (c * dt) + 1.0)
        - np.log((a - r) / a_inf)
        - np.log((b - r) / b_inf)
        + np.log((c + r) / c_inf)
    )


def bisect_reaction(a, b, c, dt, iters: int = 80, a_inf=1.0, b_inf=1.0, c_inf=1.0):
    """Bisection for the trajectory root; vectorized over ndarray inputs.

    80 halvings shrink the bracket below 1e-24 of its initial width, i.e.
    far past the 1e-14 oracle tolerance for the ranges exercised here.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    lo = -np.minimum(c * dt, c) * (1.0 - 1e-15)
    hi = np.minimum(a, b) * (1.0 - 1e-15)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        g = trajectory_residual(mid, a, b, c, dt, a_inf, b_inf, c_inf)
        lo = np.where(g < 0.0, mid, lo)
        hi = np.where(g < 0.0, hi, mid)
    return 0.5 * (lo + hi)


def reaction_rhs(y: np.ndarray) -> np.ndarray:
    """Right-hand side of the reaction-only ODE (unit rates)."""
    a, b, c = y
    flux = a * b - c
    return np.array([-flux, -flux, flux])


def rk4_reaction(y0, t_final: float, n_steps: int) -> np.ndarray:
    """Classical RK4 on the reaction-only ODE; reference for the ODE limit."""
    y = np.asarray(y0, dtype=float).copy()
    dt = t_final / n_steps
    for _ in range(n_steps):
        k1 = reaction_rhs(y)
        k2 = reaction_rhs(y + 0.5 * dt * k1)
        k3 = reaction_rhs(y + 0.5 * dt * k2)
        k4 = reaction_rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y
