"""Quadrature kernels used by the conjugated integrals.

Smooth integrands go through composite Gauss-Legendre panels aligned to unit
intervals. Endpoint-singular integrands (integrable power singularities) go
through tanh-sinh, whose nodes never touch the endpoints. Weakly singular
convolution kernels are integrated by product rules: the integrand is
interpolated piecewise-linearly on a graded mesh and the kernel
moments are taken exactly. The product rule has a single kernel anchor, the
mesh's last node; a kernel singular at the lower end is reached by
reflecting the integrand (see `nonlocal_ops`).

Integrand protocol: an integrand g takes a float or a float ndarray of u and
returns a float or an ndarray of the same shape. Gauss-Legendre evaluates
each panel's nodes in one call and product integration the whole mesh
interior in one call; tanh-sinh and the product rule's two endpoints call g
on single floats.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_edges(lo: float, hi: float) -> list[float]:
    # split at the integers strictly between lo and hi
    edges = [lo]
    k = math.floor(lo) + 1
    while k < hi:
        if k > lo:
            edges.append(float(k))
        k += 1
    edges.append(hi)
    return edges


def gauss_composite(g, lo: float, hi: float, nodes: int = 64) -> float:
    """Composite Gauss-Legendre over unit-aligned panels, `nodes` points each."""
    if hi == lo:
        return 0.0
    xg, wg = _leggauss(max(2, int(nodes)))
    total = 0.0
    edges = _panel_edges(lo, hi)
    for a, b in zip(edges[:-1], edges[1:]):
        c, m = 0.5 * (b - a), 0.5 * (a + b)
        vals = np.asarray(g(m + c * xg), dtype=float)
        if not np.isfinite(vals).all():
            raise ValueError("integrand returned a non-finite value")
        total += c * float(wg @ vals)
    return total


def tanh_sinh(g, lo: float, hi: float, tol: float = 1e-12, max_level: int = 11) -> float:
    """Double-exponential quadrature on [lo, hi].

    Handles integrable endpoint singularities. Nodes approach each endpoint
    until float resolution runs out (down to denormal offsets when the
    endpoint is 0.0); each side stops independently, so a singular side keeps
    resolving after the smooth side saturates. The iteration stops once two
    levels agree to `tol` (relative).
    """
    c = 0.5 * (hi - lo)
    if c == 0.0:
        return 0.0
    mid = 0.5 * (lo + hi)
    hp = 0.5 * math.pi
    best = None
    for level in range(3, max_level + 1):
        h = 4.0 / (1 << level)
        s = 0.0
        k = 0
        alive_hi = True
        alive_lo = True
        while k <= 100_000:
            t = k * h
            a = hp * math.sinh(t)
            if a < 300.0:
                w = hp * math.cosh(t) / math.cosh(a) ** 2
                dist = 2.0 * c / (math.exp(2.0 * a) + 1.0)
            else:
                damp = math.exp(-2.0 * a)
                w = 2.0 * math.pi * math.cosh(t) * damp
                dist = 2.0 * c * damp
            if k == 0:
                v = g(mid)
                if not math.isfinite(v):
                    raise ValueError("integrand returned a non-finite value")
                s += w * v
                k += 1
                continue
            if dist <= 0.0 or w <= 0.0:
                break
            inc = 0.0
            resolved = False
            xp = hi - dist
            if alive_hi and xp < hi:
                # an overflow this deep means doubles cannot hold g there;
                # freeze that side and keep the other going
                try:
                    vp = g(xp)
                except OverflowError:
                    alive_hi = False
                else:
                    if not math.isfinite(vp):
                        raise ValueError("integrand returned a non-finite value")
                    inc += w * vp
                    resolved = True
            xm = lo + dist
            if alive_lo and xm > lo:
                try:
                    vm = g(xm)
                except OverflowError:
                    alive_lo = False
                else:
                    if not math.isfinite(vm):
                        raise ValueError("integrand returned a non-finite value")
                    inc += w * vm
                    resolved = True
            if not resolved:
                break
            s += inc
            if t > 3.0 and abs(inc) <= 1e-18 * max(1.0, abs(s)):
                break
            k += 1
        val = c * h * s
        if best is not None and abs(val - best) <= tol * max(1.0, abs(val)):
            return val
        best = val
    return float(best)


# -- product integration against weakly singular kernels ---------------------


def graded_mesh_two_sided(lo: float, hi: float, n: int) -> np.ndarray:
    """Mesh of ~n cells refined toward both endpoints, with cubic grading.

    Kernel singularities sit at one endpoint and integrand curvature usually
    concentrates at the other, so both ends get clustered cells.
    """
    half = max(1, n // 2)
    mid = 0.5 * (lo + hi)
    jl = (np.arange(half + 1, dtype=float) / half) ** 3.0
    left = lo + (mid - lo) * jl
    jr = (np.arange(half, dtype=float) / half)[::-1] ** 3.0
    right = hi - (hi - mid) * jr
    return np.concatenate([left, right])


def product_weights_left(mesh: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment data for ∫ g(v) (X - v)^mu dv with X = mesh[-1], mu > -1.

    Returns (M0, M1, h) per cell: the kernel mass, the kernel first moment
    about the cell's left node, and the cell widths. A piecewise-linear g is
    then integrated exactly as g_left*(M0 - M1/h) + g_right*(M1/h).
    """
    X = mesh[-1]
    w = X - mesh
    m1, m2 = mu + 1.0, mu + 2.0
    pw1 = np.power(w, m1)
    pw2 = np.power(w, m2)
    M0 = (pw1[:-1] - pw1[1:]) / m1
    M1 = w[:-1] * M0 - (pw2[:-1] - pw2[1:]) / m2
    return M0, M1, np.diff(mesh)


def product_integrate(g, mesh: np.ndarray, mu: float) -> float:
    """∫ g(v) (X - v)^mu dv over the mesh span, with the anchor X = mesh[-1].

    Non-finite g at an endpoint (a blow-up at the very edge) demotes that
    single cell to a midpoint rule.
    """
    M0, M1, h = product_weights_left(mesh, mu)

    def _endpoint(v: float) -> float:
        # A blow-up at the very edge shows up as inf/nan or as a raised
        # arithmetic error; both demote the edge cell to the midpoint rule.
        try:
            return float(g(v))
        except (ArithmeticError, ValueError):
            return math.nan

    vals = np.empty(len(mesh), dtype=float)
    vals[0] = _endpoint(mesh[0])
    vals[-1] = _endpoint(mesh[-1])
    vals[1:-1] = g(mesh[1:-1])
    contrib = vals[:-1] * (M0 - M1 / h) + vals[1:] * (M1 / h)
    if not math.isfinite(vals[0]):
        contrib[0] = g(0.5 * (mesh[0] + mesh[1])) * M0[0]
    if not math.isfinite(vals[-1]):
        contrib[-1] = g(0.5 * (mesh[-2] + mesh[-1])) * M0[-1]
    if not np.isfinite(contrib).all():
        raise ValueError("integrand returned a non-finite value inside the mesh")
    return float(contrib.sum())
