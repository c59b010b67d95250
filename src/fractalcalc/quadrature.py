"""Quadrature kernels used by the conjugated integrals.

Composite Gauss-Legendre panels aligned to unit intervals have no caller in
the library; they stay because perfbench's tracer looks `gauss_composite` up
by name. Smooth, endpoint-singular and exponentially decaying integrands go
through tanh-sinh, whose nodes never touch the endpoints. Convolution
kernels (X - v)^mu are integrated by a product rule: the integrand is
interpolated quadratically on each pair of cells of a graded mesh and the
kernel moments against each interpolant are taken exactly. For mu in
(-3, -1) the integral is a Hadamard finite part, which the rule takes by
dropping the divergent power at the anchor; that is how `nonlocal_ops`
evaluates fractional derivatives. Moments are in closed form on pairs close
to the anchor and by an 8-point Gauss rule on pairs far from it, where the
closed form's differences of nearly equal powers would cancel.
`_graded_nodes` sizes a grid's meshes by their spans; each is an affine
image of a reference mesh that depends only on its cell count, so
`product_integrate` weights it by cached reference weights times
span^(mu + 1), one mesh at a time. An integrand that blows up at the
terminal, the lower end, is met by subtracting a fitted power whose integral
is exact, and raises when no such power fits. The product rule has a single
kernel anchor, each mesh's last node; a kernel singular at the lower end is
reached by reflecting the integrand (see `nonlocal_ops`).

Integrand protocol: an integrand g takes a 1-D float ndarray of u and returns
a float ndarray of the same shape; no kernel calls g on a bare float.
Gauss-Legendre evaluates the nodes of all its panels in one call. Product
integration takes the values of g already sampled on a grid's nodes, so
that `nonlocal_ops` can sample a whole grid in one call. Tanh-sinh
nests its levels: each finer level adds only its new odd nodes to the
running sum, in one call per level. It stops once two levels agree, or a
level sooner where the last three show double-exponential convergence, and
raises ConvergenceError when neither happens by level 13. It calls g on
one-element arrays only to find where an overflowing side must stop. A
non-finite value of g where a rule needs it raises DomainError.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .exceptions import ConvergenceError, DomainError


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_edges(lo: float, hi: float) -> list[float]:
    # split at the integers strictly between lo and hi
    edges = [lo]
    k = math.floor(lo) + 1
    while k < hi:
        edges.append(float(k))
        k += 1
    edges.append(hi)
    return edges


def gauss_composite(g, lo: float, hi: float, nodes: int = 64) -> float:
    """Composite Gauss-Legendre over unit-aligned panels, `nodes` points each.

    The nodes of every panel go to g in one call; the panel sums are then
    added in panel order. No library code calls it: it stays for perfbench's
    tracer, which patches it by name.
    """
    if hi == lo:
        return 0.0
    xg, wg = _leggauss(max(2, int(nodes)))
    edges = np.array(_panel_edges(lo, hi))
    c = 0.5 * (edges[1:] - edges[:-1])
    m = 0.5 * (edges[:-1] + edges[1:])
    vals = np.asarray(g((m[:, None] + c[:, None] * xg).ravel()), dtype=float)
    if not np.isfinite(vals).all():
        raise DomainError("integrand returned a non-finite value")
    total = 0.0
    for ck, row in zip(c.tolist(), vals.reshape(len(c), -1)):
        total += ck * float(wg @ row)
    return total


_TS_FIRST_LEVEL = 3
_TS_LAST_LEVEL = 13
_TS_TOL = 1e-12  # relative agreement of two levels
# Each level about squares the error of the one before, so a relative gap of
# at most _TS_TOL^(2/3) and the previous gap^1.5 leaves an error of about gap^2.
_TS_GAP_POWER, _TS_GAP_DECAY = 2.0 / 3.0, 1.5


@lru_cache(maxsize=None)
def _ts_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, weight, distance / half span) of the nodes a tanh-sinh level adds.

    Level L has step h = 4 / 2^L. The first level adds every t = k h, k >= 1;
    each later level its odd k, the even ones being the nodes of the levels
    before it. The midpoint, t = 0 with weight pi/2, is not in the table. A
    level's nodes run out where the weight or the distance underflows.
    """
    h = 4.0 / (1 << level)
    hp = 0.5 * math.pi
    step = 1 if level == _TS_FIRST_LEVEL else 2
    ts, ws, ds = [], [], []
    k = 1
    while True:
        t = k * h
        a = hp * math.sinh(t)
        if a < 300.0:
            w = hp * math.cosh(t) / math.cosh(a) ** 2
            d = 2.0 / (math.exp(2.0 * a) + 1.0)
        else:
            damp = math.exp(-2.0 * a)
            w = 2.0 * math.pi * math.cosh(t) * damp
            d = 2.0 * damp
        if d <= 0.0 or w <= 0.0:
            break
        ts.append(t)
        ws.append(w)
        ds.append(d)
        k += step
    table = (np.array(ts), np.array(ws), np.array(ds))
    for a in table:
        a.flags.writeable = False
    return table


def _ts_values(g, head: list, x_hi: np.ndarray, x_lo: np.ndarray):
    """g at head (the midpoint or nothing) and at the nodes of both sides, in one call.

    Overflow raises inside g. A call that overflows is redone node by node,
    and each side stops at its first overflowing node, where doubles cannot
    hold g. Returns the head values and one value array per side, cut short
    where that side overflowed; the sides' nodes run away from the midpoint.
    """
    with np.errstate(over="raise"):
        try:
            vals = np.asarray(g(np.concatenate([head, x_hi, x_lo])), dtype=float)
        except (OverflowError, FloatingPointError):
            pass
        else:
            a, b = len(head), len(head) + len(x_hi)
            return vals[:a], vals[a:b], vals[b:]
        out = [np.array([g(np.array([x]))[0] for x in head])]
        for side in (x_hi, x_lo):
            v = []
            for i in range(len(side)):
                try:
                    v.append(g(side[i : i + 1])[0])
                except (OverflowError, FloatingPointError):
                    break
            out.append(np.array(v))
        return out


def tanh_sinh(g, lo: float, hi: float) -> float:
    """Double-exponential quadrature on [lo, hi].

    Handles integrable endpoint singularities. The levels nest: level 3
    evaluates all of its nodes and the midpoint, and each later level, of
    half the step, only its new odd nodes, which are added to the running
    sum. Each level makes one call of g with the new nodes of both sides.
    Nodes approach each endpoint until float resolution runs out (down to
    denormal offsets when the endpoint is 0.0); each side stops
    independently, so a singular side keeps resolving after the smooth side
    saturates. Past t = 3 a level stops at its first pair of nodes whose
    increment is below 1e-18 of the sum, and no later level looks beyond
    it. A side stops early at its first node that rounds onto the endpoint
    (about 1e-16 from 1.0) or where g overflows; if its last resolved
    increment exceeds 1e-12 of the sum, the mass past that node cannot be
    neglected and ConvergenceError is raised. The iteration stops once two
    levels agree to 1e-12 (relative), or a level sooner: once their relative
    gap is at most 1e-8 and the gap before it^1.5 (double-exponential
    error-squaring); when level 13 is reached first, ConvergenceError is
    raised, after the per-side checks.
    """
    c = 0.5 * (hi - lo)
    if c == 0.0:
        return 0.0
    mid = 0.5 * (lo + hi)
    s = 0.0
    best = gap = math.nan  # the last level's value and its relative gap to the one before
    cut = math.inf  # t of the farthest node kept; no later level looks past it
    # per side (hi, lo): t of the first node that side cannot resolve, and
    # whether g overflowed there (else the node rounds to the endpoint)
    limit = [math.inf, math.inf]
    overflow = [False, False]
    edge = [(0.0, 0.0), (0.0, 0.0)]  # per side: (t, increment) of the farthest resolved node
    for level in range(_TS_FIRST_LEVEL, _TS_LAST_LEVEL + 1):
        t, w, d = _ts_nodes(level)
        n = t.searchsorted(cut, "right")
        t, w, dist = t[:n], w[:n], c * d[:n]
        xs = (hi - dist, lo + dist)
        # the nodes run toward the endpoint, so past the first that rounds
        # onto it, every node does: each side uses the m nodes before its limit
        inside = (np.count_nonzero(xs[0] < hi), np.count_nonzero(xs[1] > lo))
        m = [min(k, t.searchsorted(lim)) for k, lim in zip(inside, limit)]
        limit = [min(lim, float(t[k])) if k < n else lim for k, lim in zip(m, limit)]
        first = level == _TS_FIRST_LEVEL
        v_mid, *vals = _ts_values(g, [mid] if first else [], xs[0][: m[0]], xs[1][: m[1]])
        if first:
            if not np.isfinite(v_mid[0]):
                raise DomainError("integrand returned a non-finite value")
            s = 0.5 * math.pi * float(v_mid[0])
        inc = np.zeros(n)
        for side, v in enumerate(vals):
            k = len(v)
            if k < m[side]:
                limit[side], overflow[side] = float(t[k]), True
            inc[:k] += w[:k] * v
            if k and t[k - 1] > edge[side][0]:
                edge[side] = (float(t[k - 1]), float(w[k - 1] * v[-1]))
        # the running sums in node order, as a node-by-node walk adds them
        run = np.cumsum(np.concatenate(([s], inc)))[1:]
        j = t.searchsorted(3.0, "right")
        stop = (np.abs(inc[j:]) <= 1e-18 * np.maximum(1.0, np.abs(run[j:]))).nonzero()[0]
        keep = j + stop[0] + 1 if len(stop) else n
        if not np.isfinite(inc[:keep]).all():
            raise DomainError("integrand returned a non-finite value")
        if len(stop):
            cut = float(t[keep - 1])
        s = float(run[keep - 1])
        val = c * (4.0 / (1 << level)) * s
        last, gap = gap, abs(val - best) / (abs(val) or math.nan)
        converging = _TS_TOL**_TS_GAP_POWER >= gap <= last**_TS_GAP_DECAY
        agreed = abs(val - best) <= _TS_TOL * max(1.0, abs(val)) or converging
        if agreed:
            break
        best = val
    for side in (0, 1):
        if limit[side] < math.inf and abs(edge[side][1]) > _TS_TOL * abs(s):
            cause = "integrand overflows" if overflow[side] else "nodes run out of float resolution"
            raise ConvergenceError(
                f"{cause} at the {('upper', 'lower')[side]} endpoint "
                "before the quadrature resolves it"
            )
    if not agreed:
        raise ConvergenceError(f"no two levels agree to tol={_TS_TOL!r} by level {_TS_LAST_LEVEL}")
    return float(val)


# -- product integration against weakly singular kernels ---------------------


_NODES_PER_UNIT = 256  # graded-mesh cells per unit span
_TERMINAL_GRADE = 3.5
_ANCHOR_GRADE = 3.0
_ANCHOR_FLOOR = 1e-4
# Pairs whose width exceeds this fraction of their distance from the anchor
# take their kernel moments in closed form; the rest, where the closed form's
# differences of nearly equal powers would cancel, by Gauss-Legendre.
_CLOSED_RATIO = 0.5
_FAR_NODES = 8


@lru_cache(maxsize=64)
def _reference_mesh(cells: int) -> np.ndarray:
    pairs = cells // 4
    anchor_grade = _ANCHOR_GRADE
    if pairs > 1:
        anchor_grade = min(anchor_grade, -math.log(_ANCHOR_FLOOR) / math.log(pairs))
    ramp = np.arange(pairs + 1, dtype=float) / pairs
    edges = np.concatenate([0.5 * ramp**_TERMINAL_GRADE, 1.0 - 0.5 * ramp[-2::-1] ** anchor_grade])
    mesh = np.empty(2 * len(edges) - 1)
    mesh[::2] = edges
    mesh[1::2] = 0.5 * (edges[:-1] + edges[1:])
    mesh.flags.writeable = False
    return mesh


def _graded_nodes(lo: float, his) -> tuple[np.ndarray, tuple]:
    """A grid's graded meshes, lo + (hi - lo) ref ending at hi for each hi, as
    one array (lo, then each mesh past it) and their ends. ref has 256 cells
    per unit span, rounded down to a multiple of 4, from 32 to 4,096, in
    cells // 4 pairs a half, split at their midpoints, graded as (k/P)^3.5
    toward lo, the terminal, where g is often singular, and as (k/P)^3 toward
    hi, the kernel anchor, no anchor pair under 1e-4 of the half span:
    finite-part weights grow like that width^-beta."""
    cells = [4 * (min(4096, max(32, math.ceil(_NODES_PER_UNIT * (hi - lo)))) // 4) for hi in his]
    ends = tuple(itertools.accumulate(cells, initial=1))[1:]
    meshes = [lo + (hi - lo) * _reference_mesh(c)[1:] for hi, c in zip(his, cells)]
    nodes = np.concatenate([[lo + 0.0]] + meshes)
    for end, hi in zip(ends, his):
        nodes[end - 1] = hi
    return nodes, ends


@lru_cache(maxsize=None)
def _far_rule() -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre on [0, 1]: the nodes, and the weights times 1, t, t^2
    x, w = _leggauss(_FAR_NODES)
    t = 0.5 * (x + 1.0)
    return t, 0.5 * w * np.stack([np.ones_like(t), t, t * t])


def _pair_moments(near: np.ndarray, width: np.ndarray, mu: float) -> np.ndarray:
    """Kernel moments H ∫_0^1 (a + H t)^mu t^q dt, q = 0, 1, 2, per pair.

    a is the pair's distance from the anchor and H its width. Shape (3, P).
    At a = 0 the closed form is the Hadamard finite part: the anchor's
    power a^(mu + q + 1) is dropped, which for mu + q + 1 > 0 is its value.
    """
    moments = np.empty((3, len(near)))
    closed = width > _CLOSED_RATIO * near
    a, h = near[closed], width[closed]
    b = a + h
    positive = a > 0.0
    power = []
    for q in range(3):
        p = mu + q + 1.0
        at_a = np.zeros_like(a)
        np.power(a, p, out=at_a, where=positive)
        power.append((np.power(b, p) - at_a) / p)
    moments[0, closed] = power[0]
    moments[1, closed] = (power[1] - a * power[0]) / h
    moments[2, closed] = (power[2] - 2.0 * a * power[1] + a * a * power[0]) / (h * h)
    far = ~closed
    if far.any():
        t, wt = _far_rule()
        a, h = near[far], width[far]
        kernel = np.power(a[:, None] + h[:, None] * t, mu)
        # elementwise sums rather than a matrix product, whose BLAS
        # summation order can change the last bits from machine to machine
        moments[:, far] = (kernel * wt[:, None, :]).sum(axis=2) * h
    return moments


def product_weights(mesh: np.ndarray, mu: float) -> np.ndarray:
    """Node weights of the piecewise-quadratic product rule.

    The rule integrates f.p.∫ g(v) (X - v)^mu dv over the mesh span, with the
    anchor X = mesh[-1], exactly when g is quadratic on each pair of cells
    (mesh[2k], mesh[2k+1], mesh[2k+2]). mu > -3, except -1 and -2, whose
    moments are logarithms; mu < -1 gives the Hadamard finite part.
    """
    if len(mesh) < 3 or len(mesh) % 2 == 0:
        raise ValueError(f"the product rule needs an even number of cells, got {len(mesh) - 1}")
    if not mu > -3.0 or mu in (-1.0, -2.0):
        raise ValueError(f"kernel exponent must exceed -3 and not be -1 or -2, got {mu!r}")
    w = mesh[-1] - mesh
    near, mid = w[2::2], w[1::2]
    width = w[:-2:2] - near
    tm = (mid - near) / width
    m0, m1, m2 = _pair_moments(near, width, mu)
    weights = np.zeros(len(mesh))
    weights[2::2] = (m2 - (1.0 + tm) * m1 + tm * m0) / tm
    weights[1::2] = (m2 - m1) / (tm * (tm - 1.0))
    weights[:-2:2] += (m2 - tm * m1) / (1.0 - tm)
    return weights


@lru_cache(maxsize=256)
def _reference_weights(cells: int, mu: float) -> np.ndarray:
    weights = product_weights(_reference_mesh(cells), mu)
    weights.flags.writeable = False
    return weights


def _terminal_power(z: np.ndarray, g: np.ndarray) -> tuple[float, float, float] | None:
    """(c, gamma, d) of the model c z^gamma + d through g at z[1], z[2], z[4].

    gamma solves ratio(gamma) = target, the model's ratio of differences
    against g's, on (-1, 4), where the power is integrable and the ratio
    rises: Newton steps on the nearly linear log ratio, from the chord, and
    a bisection for a step that leaves the bracket. None if no model fits.
    """
    x1, x2, x3 = math.log(z[1]), math.log(z[2]), math.log(z[4])
    g1, g2, g3 = g[1], g[2], g[4]
    if not (g3 - g2) * (g2 - g1) > 0.0:
        return None
    target = (g3 - g2) / (g2 - g1)

    def ratio(gamma: float) -> tuple[float, float]:
        # the ratio and its log-derivative; nan where gamma is too near 0 to tell
        p1, p2, p3 = math.exp(gamma * x1), math.exp(gamma * x2), math.exp(gamma * x3)
        if p1 == p2 or p2 == p3:
            return math.nan, math.nan
        d2, d1 = p3 - p2, p2 - p1
        return d2 / d1, (x3 * p3 - x2 * p2) / d2 - (x2 * p2 - x1 * p1) / d1

    lo, hi = -1.0, 4.0
    (r_lo, _), (r_hi, _) = ratio(lo), ratio(hi)
    if not r_lo < target < r_hi:
        return None
    gamma = lo + (hi - lo) * math.log(target / r_lo) / math.log(r_hi / r_lo)
    for _ in range(60):
        r, slope = ratio(gamma)
        lo, hi = (gamma, hi) if r < target else (lo, gamma)
        step = gamma - math.log(r / target) / slope
        converged = lo <= step <= hi and abs(step - gamma) <= 1e-9  # the next error is ~1e-18
        gamma = step if lo <= step <= hi else 0.5 * (lo + hi)
        if converged:
            break
    c = (g2 - g1) / (z[2] ** gamma - z[1] ** gamma)
    return c, gamma, g1 - c * z[1] ** gamma


def product_integrate(vals: np.ndarray, nodes: np.ndarray, mu: float, ends) -> list[float]:
    """f.p.∫ g(v) (X - v)^mu dv over each mesh of a grid, from vals = g(nodes),
    the anchor X being the mesh's last node. nodes and ends are a grid of
    `_graded_nodes`: mesh i, the terminal nodes[0] then nodes[ends[i - 1]:
    ends[i]] (from 1 for i = 0), is an affine image of a reference mesh, so
    it is weighted by span^(mu + 1) times the cached reference weights (see
    `product_weights`) and summed alone. A non-finite vals[0] is met on each
    mesh by subtracting c z^gamma + d, z = v - nodes[0], fitted to g at three
    nodes next to the terminal and integrated exactly (a Beta function), or
    ConvergenceError if none fits; a non-finite sum raises DomainError."""
    lo = nodes[0]
    totals = []
    for first, end in zip((1, *ends), ends):
        g = np.concatenate((vals[:1], vals[first:end]))
        head = 0.0
        if not math.isfinite(g[0]):
            z = np.concatenate(([0.0], nodes[first:end] - lo))
            fit = _terminal_power(z, g)
            if fit is None:
                raise ConvergenceError(
                    "no integrable power c z^gamma + d fits the blow-up at the terminal"
                )
            c, gamma, g[0] = fit
            g[1:] -= c * z[1:] ** gamma
            # f.p.∫_0^span z^gamma (span - z)^mu dz = span^(s - 1) B(gamma + 1, mu + 1)
            s = gamma + mu + 2.0
            if s > 0.0 or s != math.floor(s):
                beta_fn = math.gamma(gamma + 1.0) * math.gamma(mu + 1.0) / math.gamma(s)
                head = c * z[-1] ** (s - 1.0) * beta_fn
        weights = (nodes[end - 1] - lo) ** (mu + 1.0) * _reference_weights(end - first, mu)
        totals.append(float((weights * g).sum()) + head)
        if not math.isfinite(totals[-1]):
            raise DomainError("integrand returned a non-finite value on the mesh")
    return totals
