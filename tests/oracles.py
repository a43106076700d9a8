"""Independent oracles used by the tests.

Everything here is written from the defining formulas, deliberately not
reusing the production code paths it is used to check: a brute-force stencil
and an ``np.roll`` stencil for the diffusion operator, conjugate gradients
with a new array per vector, bisection on the reaction trajectory equation,
its exact sign in rational arithmetic, the reaction field solve written as
one plain array expression per quantity, and an RK4 integrator for the
reaction-only ODE.
"""

from __future__ import annotations

from fractions import Fraction

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


def roll_div_grad(v: np.ndarray, faces, h: float) -> np.ndarray:
    """div(D grad v) with ``np.roll`` copies, periodic wrap, any dimension.

    ``faces[axis]`` is the coefficient on the faces normal to physical axis
    ``axis`` (the x index varies along the last array axis).  Written in the
    same operation order as the production stencil, so the two agree
    bitwise: flux = D * (v[i+1] - v[i]) / h, then (flux[i] - flux[i-1]) / h,
    summed over axes starting from zero.
    """
    out = np.zeros_like(v)
    for axis, dface in enumerate(faces):
        array_axis = v.ndim - 1 - axis
        flux = dface * (np.roll(v, -1, axis=array_axis) - v) / h
        out += (flux - np.roll(flux, 1, axis=array_axis)) / h
    return out


def implicit_residual(b: np.ndarray, x: np.ndarray, faces, h: float, dt: float) -> np.ndarray:
    """b - (x - dt div(D grad x)), the implicit Euler residual, via :func:`roll_div_grad`."""
    return b - (x - dt * roll_div_grad(x, faces, h))


def pcg(apply, precondition, b: np.ndarray, tol: float):
    """Preconditioned CG from x0 = M^-1 b with a new array for every vector.

    ``apply`` and ``precondition`` map an array to a new array.  Returns
    (x, iterations, relative residual).
    """
    b_norm = float(np.linalg.norm(b.ravel()))
    x = precondition(b)
    r = b - apply(x)
    rel = float(np.linalg.norm(r.ravel())) / b_norm
    p = None
    iterations = 0
    while rel > tol:
        z = precondition(r)
        rz_next = float(np.sum(r * z))
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
        ap = apply(p)
        alpha = rz / float(np.sum(p * ap))
        x = x + alpha * p
        r = r - alpha * ap
        rel = float(np.linalg.norm(r.ravel())) / b_norm
        iterations += 1
    return x, iterations, rel


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


def exact_trajectory_sign(r, a, b, c, cdt, a_inf=1.0, b_inf=1.0, c_inf=1.0) -> int:
    """The exact sign (-1, 0 or 1) of the trajectory equation G at the double ``r``.

    ``cdt`` is the double k- c dt.  For r in [-min(cdt, c), min(a, b)], G has
    the sign of its exponentiated form a_inf b_inf (r + cdt)(c + r) -
    c_inf cdt (a - r)(b - r), evaluated here in ``Fraction``s without
    rounding; it is -1 at the left end and 1 at the right end.
    """
    r, a, b, c, cdt, a_inf, b_inf, c_inf = map(Fraction, (r, a, b, c, cdt, a_inf, b_inf, c_inf))
    d = a_inf * b_inf * (r + cdt) * (c + r) - c_inf * cdt * (a - r) * (b - r)
    return (d > 0) - (d < 0)


def reaction_residual_plain(r, a, b, c, cdt, p):
    """The solve's G(R) at ``cdt`` = k- c dt, as plain expressions.

    Each term is log(x / ref), or ln x - ln ref where that over- or underflows.
    """
    r = np.broadcast_to(r, a.shape)
    terms = []
    for log, x, ref in ((np.log1p, r, cdt), (np.log, a - r, p.a_inf), (np.log, b - r, p.b_inf),
                        (np.log, c + r, p.c_inf)):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t = log(x / ref)
            terms.append(np.where(np.isfinite(t), t, np.log(x) - np.log(ref)))
    return terms[0] - terms[1] - terms[2] + terms[3]


def reaction_solve_plain(a, b, c, dt, p, tol: float, max_iter: int):
    """The reaction field solve over all cells at once, one new array per quantity.

    The closed-form root, its bracket test and the safeguarded Newton polish
    of ``rxd.reaction``, in the same operations and order, so the two agree
    bitwise.  Returns (r, iterations, max |G|); a cell still unconverged
    after ``max_iter`` iterations is returned as it stands.
    """
    cdt = np.maximum(p.k_minus * c * dt, np.nextafter(0.0, 1.0))
    s_lo, s_hi = -np.minimum(cdt, c), np.minimum(a, b)
    ab_inf = p.a_inf * p.b_inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        big_a = ab_inf - p.c_inf * cdt
        big_b = ab_inf * (c + cdt) + p.c_inf * cdt * (a + b)
        q = (ab_inf * c - p.c_inf * a * b) * (cdt / big_b)
        r = -2.0 * q / (1.0 + np.sqrt(np.maximum(0.0, 1.0 - 4.0 * big_a * q / big_b)))
    r = np.where((r > s_lo) & (r < s_hi), r, 0.0)

    def residual(x):
        return reaction_residual_plain(x, a, b, c, cdt, p)

    def fold(point, g, lo, hi):
        return (np.where(g < 0.0, np.maximum(lo, point), lo),
                np.where(g >= 0.0, np.minimum(hi, point), hi))

    g = residual(r)
    iterations = np.zeros(r.shape, dtype=np.int64)
    active = ~(np.abs(g) <= tol)
    lo, hi = fold(r, g, *fold(0.0, residual(0.0), s_lo, s_hi))
    before_last = last = np.inf
    for _ in range(max_iter):
        active &= ~((np.abs(g) <= tol) | (np.nextafter(lo, hi) >= hi))
        if not active.any():
            break
        d = (r + cdt, a - r, b - r, c + r)
        m = np.min(d, axis=0)
        dx = g * m / sum(m / x for x in d)
        cand = r - dx
        cand = np.where(cand == r, np.nextafter(r, np.where(g < 0.0, hi, lo)), cand)
        newton = (cand > lo) & (cand < hi) & (np.abs(dx) < 0.5 * before_last)
        near = np.where(lo - s_lo <= s_hi - hi, s_lo, s_hi)
        distance = np.sqrt(np.abs(lo - near)) * np.sqrt(np.abs(hi - near))
        mid = np.clip(near + np.sign(r - near) * distance,
                      np.nextafter(lo, hi), np.nextafter(hi, lo))
        step = np.where(newton, cand, mid)
        before_last, last = last, np.abs(step - r)
        r = np.where(active, step, r)
        iterations += active
        g = np.where(active, residual(r), g)
        lo, hi = fold(r, g, lo, hi)
    return r, iterations, float(np.max(np.abs(g)))


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
