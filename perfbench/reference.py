"""mpmath references (30 digits) for the sampled benchmark outputs.

Every value is compared with the exact quantity at the same inputs, so
an error in the circular variance shows up in the quantities built on
it (deviates, the matched normal and wrapped-normal laws, the log ratio,
the expansions evaluated at the exact deviate).

The stated tolerance is TOL = 1e-12, the library's default quadrature
tolerance: relative for densities, absolute for log ratios, expansion
values and distribution functions (the quadrature `tol` is absolute).
"""

import mpmath as mp

mp.mp.dps = 30

TOL = 1e-12
# Relative errors are taken against at least the smallest normal double:
# a density that underflows to 0.0 there is correctly rounded.
DBL_MIN = 2.2250738585072014e-308
RELATIVE = {"vm_density", "reference_normal_density", "wn_density"}
# Wraps summed for the wrapped-normal reference: v <= sqrt(2) here, so
# the terms beyond |k| = 12 are below e^-900.
WN_WRAPS = 12


class _Kappa:
    """Exact per-concentration constants, computed once per kappa."""

    def __init__(self, kappa):
        k = mp.mpf(kappa)
        self.kappa = k
        self.i0e = mp.besseli(0, k) * mp.exp(-k)
        self.sigma2 = 1 - mp.besseli(1, k) / mp.besseli(0, k)
        self.sigma = mp.sqrt(self.sigma2)

    def density(self, t):
        return mp.exp(-2 * self.kappa * mp.sin(t / 2) ** 2) / (2 * mp.pi * self.i0e)

    def deviate_tilde(self, t):
        return t / self.sigma / mp.sqrt(2)

    def cdf(self, t):
        # mass from -pi to t, split at the mode and at a few sigma so the
        # quadrature resolves the peak
        cuts = [c * self.sigma for c in (-40, -8, -2, 0, 2, 8)]
        pts = [-mp.pi] + [c for c in cuts if -mp.pi < c < t] + [t]
        f = lambda u: mp.exp(-2 * self.kappa * mp.sin(u / 2) ** 2)  # noqa: E731
        return mp.quad(f, pts) / (2 * mp.pi * self.i0e)


def _wrap(t):
    t = mp.fmod(t, 2 * mp.pi)
    if t > mp.pi:
        t -= 2 * mp.pi
    elif t <= -mp.pi:
        t += 2 * mp.pi
    return t


def exact(kind, mu, kappa_consts, x):
    """Exact value of a sampled quantity at mean direction mu and point x."""
    c = kappa_consts
    t = mp.mpf(x) - mp.mpf(mu)
    u = 1 / c.kappa
    if kind == "vm_density":
        return c.density(_wrap(t))
    if kind == "vm_cdf_quadrature":
        return c.cdf(t)
    if kind == "reference_normal_density":
        return mp.npdf(t, 0, mp.sqrt(2) * c.sigma)
    if kind == "log_ratio_exact":
        return mp.log(mp.sqrt(2) * c.sigma * c.density(t) / mp.npdf(c.deviate_tilde(t)))
    if kind == "wn_density":
        v = mp.sqrt(2) * c.sigma
        tw = _wrap(t)
        return mp.fsum(mp.npdf(tw + 2 * mp.pi * k, 0, v) for k in range(-WN_WRAPS, WN_WRAPS + 1))
    d = c.deviate_tilde(t)
    d2 = d * d
    d4 = d2 * d2
    if kind == "log_ratio_expansion":
        return (d4 / 24 - d2 / 8) * u + (-d4 * d2 / 720 + d4 / 48 - d2 / 8 + mp.mpf(3) / 64) * u * u
    if kind == "ratio_expansion":
        return 1 + (d4 / 24 - d2 / 8) * u + (
            d4 * d4 / 1152 - 19 * d4 * d2 / 2880 + 11 * d4 / 384 - d2 / 8 + mp.mpf(3) / 64
        ) * u * u
    if kind == "cdf_expansion":
        d3 = d2 * d
        corr = (d3 / 24) * u + (d3 * d4 / 1152 - d3 * d2 / 1920 + 5 * d3 / 192 - 3 * d / 64) * u * u
        return mp.ncdf(d) - mp.npdf(d) * corr
    raise ValueError("no reference for %r" % (kind,))


def error_ratios(samples):
    """|value - exact| / TOL for each (where, kind, mu, kappa, x, value) sample."""
    consts = {}
    out = []
    for where, kind, mu, kappa, x, value in samples:
        c = consts.get(kappa)
        if c is None:
            c = consts[kappa] = _Kappa(kappa)
        ref = exact(kind, mu, c, x)
        err = abs(mp.mpf(value) - ref)
        if kind in RELATIVE:
            err /= max(abs(ref), DBL_MIN)
        out.append((float(err) / TOL, where, kind, kappa, x))
    return out
