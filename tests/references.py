"""Reference implementations that tests compare the package against.

Compensated scaled power series for e^(-x) I0(x) and e^(-x) I1(x), run
to twice the term count needed for convergence; they are the high-trust
references for the Bessel code and the circular variance.
`adaptive_quadrature` integrates any integrand by adaptive bisection on
the generic 15-point Gauss-Kronrod panel `gk15_panel`; the tests take
integrals, normalizations and moments with it, and `bessel_i0_integral`
gives I0 from its integral representation with it.
`matched_sup_gap_full_grid` evaluates the density gap at every grid
offset on [0, pi], the reference for `matched_sup_gap`'s outward walk,
and `vm_cdf_sweep_every_segment` integrates every segment of the CDF
sweep, the reference for the sweep's stop at its 20 sigma reach.
`vm_scaled_mass_stack_only` keeps the quadrature of the CDF sweep as it
was before `backend.vm_scaled_mass` tried its first panel ahead of the
stack and `backend._vm_panel` looped over its node table: the reference
that the current kernels must match bit for bit.
MPMATH_KAPPAS are the concentrations at which the per-kappa values are
checked against mpmath.
"""

import math
from dataclasses import dataclass
from typing import Callable

from circbridge import backend
from circbridge.distributions import (
    SQRT2,
    TWO_PI,
    _require_tol,
    _vm_density_value,
    _wn_tail_reach,
    _wn_wraps,
    wrap_angle,
)

# 300 log-uniform concentrations on [1e-4, 1e6], plus both sides of the
# kappa = 300 and 600 points where earlier versions switched algorithms.
MPMATH_KAPPAS = [10.0 ** (-4.0 + 10.0 * i / 299.0) for i in range(300)] + [
    299.5,
    300.5,
    599.5,
    600.5,
]


def _kahan_series(t0: float, ratio_num: Callable[[int], float]) -> float:
    # Compensated summation, run to twice the term count needed for
    # convergence.
    s = t0
    c = 0.0
    t = t0
    k = 1
    settled = 0
    while True:
        t *= ratio_num(k)
        y = t - c
        tt = s + y
        c = (tt - s) - y
        s = tt
        if settled:
            settled -= 1
            if settled == 0:
                return s
        elif t <= 1e-17 * s:
            settled = k  # keep going for as many terms again
        if k >= 400000:
            raise ArithmeticError("series reference did not converge")
        k += 1


def i0e_series_reference(kappa: float) -> float:
    """Compensated scaled power series for e^(-kappa) I0(kappa), kappa <= 700."""
    if not (0.0 <= kappa <= 700.0):
        raise ValueError("kappa must be in [0, 700], got %r" % (kappa,))
    q = 0.25 * kappa * kappa
    return _kahan_series(math.exp(-kappa), lambda k: q / (k * k))


def i1e_series_reference(kappa: float) -> float:
    """Compensated scaled power series for e^(-kappa) I1(kappa), kappa <= 700."""
    if not (0.0 <= kappa <= 700.0):
        raise ValueError("kappa must be in [0, 700], got %r" % (kappa,))
    if kappa == 0.0:
        return 0.0
    q = 0.25 * kappa * kappa
    return _kahan_series(0.5 * kappa * math.exp(-kappa), lambda k: q / (k * (k + 1)))


def bessel_i0_integral(kappa: float, tol: float = 1e-13) -> float:
    """I0(kappa) from its integral representation (1/pi) int_0^pi e^(kappa cos t) dt.

    Deliberately independent of the per-kappa kernel `backend.i0e_sigma2`.
    The integrand is evaluated in the scaled form e^(kappa(cos t - 1)) and
    rescaled at the end, which restricts kappa to at most 700 before
    e^kappa overflows.  tol is relative.
    """
    if not (0.0 <= kappa <= 700.0):
        raise ValueError("kappa must be in [0, 700], got %r" % (kappa,))
    _require_tol(tol)

    def g(t):
        return math.exp(kappa * (math.cos(t) - 1.0))

    coarse = adaptive_quadrature(g, 0.0, math.pi, 1e-4)
    abs_tol = 0.5 * tol * coarse.value
    fine = adaptive_quadrature(g, 0.0, math.pi, abs_tol)
    return math.exp(kappa) * fine.value / math.pi


def matched_sup_gap_full_grid(params, grid_size: int, tol: float) -> float:
    """`matched_sup_gap` by evaluating both densities at every grid offset
    on [0, pi], j = 0 .. grid_size // 2, with no stopping test."""
    v = SQRT2 * params.sigma
    reach = _wn_tail_reach(v, tol)
    step = TWO_PI / grid_size
    sup = 0.0
    for j in range(grid_size // 2 + 1):
        t = wrap_angle(j * step)
        g = backend.wn_density_at(t, v, _wn_wraps(t, reach))
        gap = abs(_vm_density_value(params.kappa, params.i0e, t) - g)
        if gap > sup:
            sup = gap
    return sup


def vm_cdf_sweep_every_segment(params, xs, tol: float):
    """`vm_cdf_sweep` integrating every segment, those past 20 sigma too.

    xs must lie in the principal window (mu - pi, mu + pi] and tol must be
    valid; neither is checked here.
    """
    ts = [x - params.mu for x in xs]
    reach = min(math.pi, 20.0 * params.sigma)
    offsets = {0.0, *map(abs, ts)}
    if max(offsets) > reach:
        offsets.add(reach)
    cuts = sorted(offsets)
    inv_norm = 1.0 / (2.0 * math.pi * params.i0e)
    seg_tol = tol / inv_norm / max(len(cuts) - 1, 1)
    half = {0.0: 0.0}
    mass = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        part, _err, _n = backend.vm_scaled_mass(params.kappa, lo, hi, seg_tol)
        mass += part
        half[hi] = inv_norm * mass
    return [0.5 - half[-t] if t < 0.0 else 0.5 + half[t] for t in ts]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def gk15_panel(f, a, b):
    """One Kronrod-15 panel of f over [a, b], a < b.

    Returns (kronrod, |kronrod - gauss|).
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = backend._WGK[7] * fc
    resg = backend._WG[3] * fc
    for i in range(7):
        dx = h * backend._XGK[i]
        fsum = f(c - dx) + f(c + dx)
        resk += backend._WGK[i] * fsum
        if i & 1:
            resg += backend._WG[i >> 1] * fsum
    return resk * h, abs(resk - resg) * h


def adaptive_quadrature(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    Adaptive bisection on 15-point Kronrod panels; each panel is accepted
    when its embedded Gauss/Kronrod error estimate meets the local
    tolerance, which is halved at every split.  Raises QuadratureError if
    a panel at bisection depth `backend.MAX_DEPTH` (40) still fails its
    tolerance.
    """
    if not (a < b):
        raise ValueError("need a < b, got a=%r b=%r" % (a, b))
    _require_tol(tol)
    value, err, evals = adaptive_gk15_stack_only(gk15_panel, f, a, b, tol)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)


def adaptive_gk15_stack_only(panel, f, a, b, tol):
    """Adaptive bisection of [a, b] on `panel(f, lo, hi)`, which returns
    (estimate, error estimate), with every panel, the first too, popped
    from a depth-first stack: `backend.vm_scaled_mass`'s driver before it
    tried its first panel ahead of the stack.  It has no panel budget, so
    the tests give it only calls that take far fewer panels than
    `backend.MAX_PANELS`."""
    stack = [(a, b, tol, 0)]
    total = 0.0
    err_total = 0.0
    evals = 0
    while stack:
        a1, b1, tol1, depth = stack.pop()
        val, err = panel(f, a1, b1)
        evals += 15
        if err <= tol1:
            total += val
            err_total += err
        elif depth >= backend.MAX_DEPTH:
            raise backend.QuadratureError(
                "no convergence on [%r, %r] at depth %d (err=%.3e, tol=%.3e)"
                % (a1, b1, depth, err, tol1)
            )
        else:
            mid = 0.5 * (a1 + b1)
            half = 0.5 * tol1
            stack.append((mid, b1, half, depth + 1))
            stack.append((a1, mid, half, depth + 1))
    return total, err_total, evals


def vm_panel_index_loop(m, a, b):
    """`backend._vm_panel` as an index loop over the node arrays, adding to
    the Gauss sum at the odd indices only."""
    xgk, wgk, wg = backend._XGK, backend._WGK, backend._WG
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    u = math.sin(0.5 * c)
    fc = math.exp(m * (u * u))
    resk = wgk[7] * fc
    resg = wg[3] * fc
    for i in range(7):
        dx = h * xgk[i]
        u = math.sin(0.5 * (c - dx))
        f1 = math.exp(m * (u * u))
        u = math.sin(0.5 * (c + dx))
        f2 = math.exp(m * (u * u))
        fsum = f1 + f2
        resk += wgk[i] * fsum
        if i & 1:
            resg += wg[i >> 1] * fsum
    return resk * h, abs(resk - resg) * h


def vm_scaled_mass_stack_only(kappa, a, b, tol):
    """`backend.vm_scaled_mass` on the two references above."""
    if b <= a:
        return 0.0, 0.0, 0
    return adaptive_gk15_stack_only(vm_panel_index_loop, -2.0 * kappa, a, b, tol)
