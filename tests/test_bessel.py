import ast
import inspect
import math
import random
import re
import textwrap
from fractions import Fraction

import pytest
from references import (
    MPMATH_KAPPAS,
    adaptive_quadrature,
    bessel_i0_integral,
    i0e_series_reference,
    i1e_series_reference,
)

from circbridge import backend, expansions
from circbridge.bessel import bessel_i0e_asymptotic, bessel_i1e_asymptotic, i0e, log_i0e


def rel(a, b):
    return abs(a - b) / abs(b)


def i0(x):
    # the package's I0: the per-kappa kernel's scaled value, rescaled
    return i0e(x) * math.exp(x)


def test_i0_series_at_zero():
    assert i0(0.0) == 1.0


def test_i0_series_matches_integral_representation():
    got = i0(2.0)
    ref = bessel_i0_integral(2.0, 1e-13)
    assert rel(got, ref) <= 1e-12
    # independent high-precision value
    assert rel(got, 2.2795853023360673) <= 1e-14


def test_i0_series_matches_compensated_reference():
    # the power series summed with compensation, to twice the term count
    got = i0e(1.0)
    ref = i0e_series_reference(1.0)
    assert rel(got, ref) <= 1e-15


# The I1 series lives only in the test references; these checks tie it to
# the integral representation, a known value and the small-x limit.


def test_i1_series_at_zero():
    assert i1e_series_reference(0.0) == 0.0


def test_i1_series_matches_integral_representation():
    def weighted(t):
        return math.exp(2.0 * math.cos(t)) * math.cos(t)

    ref = adaptive_quadrature(weighted, 0.0, math.pi, 1e-13).value / math.pi
    got = i1e_series_reference(2.0) * math.exp(2.0)
    assert rel(got, ref) <= 1e-12
    assert rel(got, 1.590636854637329) <= 1e-14


@pytest.mark.parametrize("x", [1e-6, 1e-7, 1e-8])
def test_i1_small_argument_limit(x):
    assert abs(i1e_series_reference(x) * math.exp(x) / x - 0.5) <= 1e-10


def test_scaled_value_consistency():
    # i0e (the trapezoid kernel) agrees with I0 rescaled by e^-x
    for x in [0.5, 3.0, 30.0, 250.0, 599.0]:
        value = i0(x)
        assert rel(i0e(x), value * math.exp(-x)) <= 2e-15
        assert value > 0.0


@pytest.mark.parametrize("kappa", [0.25, 8.0, 123.0])
def test_asym_bracket_order_zero_is_one(kappa):
    assert bessel_i0e_asymptotic(kappa, 0) == 1.0
    assert bessel_i1e_asymptotic(kappa, 0) == 1.0


def test_asym_bracket_order_one_exact():
    assert bessel_i0e_asymptotic(8.0, 1) == 1.015625  # 1 + 1/64
    assert bessel_i1e_asymptotic(8.0, 1) == 0.953125  # 1 - 3/64


@pytest.mark.parametrize("order", [True, False, 1.0, 3.0, -1, 4, "2"])
@pytest.mark.parametrize("bracket", [bessel_i0e_asymptotic, bessel_i1e_asymptotic])
def test_asym_bracket_order_must_be_an_int_from_0_to_3(bracket, order):
    # True == 1 and 3.0 == 3, so a test by membership alone would take them
    message = r"^asymptotic order must be in \{0,1,2,3\}, got %s$" % re.escape(repr(order))
    with pytest.raises(ValueError, match=message):
        bracket(10.0, order)


def test_asym_brackets_match_scaled_series_at_500():
    scale = math.sqrt(2.0 * math.pi * 500.0)
    ref0 = i0e_series_reference(500.0) * scale
    ref1 = i1e_series_reference(500.0) * scale
    assert rel(bessel_i0e_asymptotic(500.0, 3), ref0) <= 1e-10
    assert rel(bessel_i1e_asymptotic(500.0, 3), ref1) <= 1e-10


def test_log_i0_at_zero():
    assert log_i0e(0.0) == 0.0


def test_log_i0e_consistency():
    # log(e^-k I0(k)) against the log of the compensated series, and
    # beyond its range against the order-3 asymptotic bracket
    for k in [0.5, 10.0, 300.0, 599.0]:
        assert abs(log_i0e(k) - math.log(i0e_series_reference(k))) <= 1e-10
    asym = -0.5 * math.log(2.0 * math.pi * 5000.0) + math.log(bessel_i0e_asymptotic(5000.0, 3))
    assert abs(log_i0e(5000.0) - asym) <= 1e-9


def test_i0_strictly_increasing():
    grid = [0.5 * i for i in range(61)]  # 0 .. 30
    vals = [i0(x) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0])
def test_series_vs_integral_representation(kappa):
    got = i0(kappa)
    ref = bessel_i0_integral(kappa, 1e-13)
    assert rel(got, ref) <= 1e-12


def test_i0e_helper_branches():
    assert rel(i0e(30.0), i0e_series_reference(30.0)) <= 1e-13
    # past kappa = 600, where I0 itself nears double overflow, i0e is
    # still the same kernel
    got = i0e(650.0)
    ref = i0e_series_reference(650.0)
    assert rel(got, ref) <= 1e-12


@pytest.mark.parametrize("bracket", [bessel_i0e_asymptotic, bessel_i1e_asymptotic])
@pytest.mark.parametrize("kappa", [1e-200, 1e-320])
def test_asym_bracket_rejects_overflowing_powers(bracket, kappa):
    # 1/kappa^3 overflows below about 1.8e-103; the bracket would be inf
    with pytest.raises(ValueError, match=r"too small for the 1/kappa expansions: 1/kappa\^3 overflows"):
        bracket(kappa, 3)


def test_domain_and_range_errors():
    with pytest.raises(ValueError):
        i0e(-1.0)
    with pytest.raises(ValueError):
        bessel_i0e_asymptotic(0.0, 3)
    with pytest.raises(ValueError):
        bessel_i0e_asymptotic(10.0, 4)
    with pytest.raises(ValueError):
        bessel_i1e_asymptotic(10.0, -1)
    with pytest.raises(ValueError):
        log_i0e(-2.0)


@pytest.mark.parametrize("fn", [i0e, log_i0e], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("x", [float("inf"), float("nan")])
def test_non_finite_argument_rejected(fn, x):
    with pytest.raises(ValueError, match="finite"):
        fn(x)


# The per-kappa kernel against an independent high-precision reference:
# mpmath's Bessel functions, not the integral the kernel itself sums.


def test_i0e_and_log_i0e_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst_i0e = worst_log = 0.0
    with mpmath.workdps(50):
        for kappa in [0.0] + MPMATH_KAPPAS:
            ref = mpmath.besseli(0, kappa) * mpmath.exp(-kappa)
            worst_i0e = max(worst_i0e, float(abs(i0e(kappa) - ref) / ref))
            worst_log = max(worst_log, float(abs(log_i0e(kappa) - mpmath.log(ref))))
    assert worst_i0e <= 2e-15
    assert worst_log <= 2e-15


@pytest.mark.parametrize("kappa", [5e-324, 1e300, 1e307])
def test_extreme_kappa_values(kappa):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ref = mpmath.besseli(0, kappa) * mpmath.exp(-kappa)
        assert float(abs(i0e(kappa) - ref) / ref) <= 2e-15
        # log_i0e is about -350 at the largest kappas, where one ulp is
        # 5.7e-14, so its bound is relative here
        log_ref = mpmath.log(ref)
        assert float(abs(log_i0e(kappa) - log_ref)) <= 2e-15 * max(1.0, float(abs(log_ref)))


@pytest.mark.parametrize("fn", [i0e, log_i0e], ids=lambda fn: fn.__name__)
def test_kappa_beyond_kernel_range_rejected(fn):
    # -2 kappa would overflow; the kernel refuses rather than return nan
    with pytest.raises(ValueError, match="kappa.*1.7e\\+308"):
        fn(1.7e308)


# The per-kappa kernel's Hankel branch, kappa >= 64: its coefficients
# derived in the rationals, and its values against mpmath on both sides of
# the switch.


def _hankel_terms(nu, count):
    # the coefficients of u^k, u = 1/kappa, in sqrt(2 pi kappa) e^-kappa
    # I_nu(kappa) ~ sum_k (-1)^k prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (k! 8^k)
    # (Abramowitz & Stegun 9.7.1)
    terms = [Fraction(1)]
    for j in range(1, count):
        terms.append(terms[-1] * Fraction((2 * j - 1) ** 2 - 4 * nu * nu, 8 * j))
    return terms


def _horner_literals(function, name):
    # the literals c0, c1, .. of the Horner expression c0 + v * (c1 + v * (..))
    # (or with -) that function assigns to name, and its operators
    value = next(
        node.value
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(function))))
        if isinstance(node, (ast.Assign, ast.AugAssign))
        and [t.id for t in getattr(node, "targets", [getattr(node, "target", None)])] == [name]
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.left, ast.Constant)
    )
    literals, ops = [], set()
    while isinstance(value, ast.BinOp):
        literals.append(value.left.value)
        ops.add(type(value.op))
        assert isinstance(value.right.op, ast.Mult)
        value = value.right.right
    return literals + [value.value], ops


def test_hankel_coefficients_equal_their_rational_derivation():
    # P = sqrt(2 pi kappa) e^-kappa I0 and P1 (the same for I1) to u^14;
    # kappa (P - P1) - P/2 has no u^0 term, and its quotient by u is R
    p0, p1 = _hankel_terms(0, 15), _hankel_terms(1, 15)
    assert (p0[1] - p1[1]) - p0[0] / 2 == 0
    r = [(p0[j + 2] - p1[j + 2]) - p0[j + 1] / 2 for j in range(13)]
    assert r == [(j + 1) * p0[j + 1] for j in range(13)]  # R = dP/du
    assert min(p0 + r) > 0
    assert _horner_literals(backend.i0e_sigma2, "p") == ([float(c) for c in p0[:13]], {ast.Add})
    assert _horner_literals(backend.i0e_sigma2, "r") == ([float(c) for c in r], {ast.Add})


def test_log_ratio_taylor_coefficients_equal_their_rational_values():
    # (x - sin x) / x^3 = sum_k (-1)^k x^(2k) / (2k + 3)!, to x^14
    taylor = [float(Fraction(1, math.factorial(2 * k + 3))) for k in range(8)]
    assert _horner_literals(expansions._log_ratio_exact_value, "q") == (taylor, {ast.Sub})


def _per_kappa_reference(mpmath, kappa):
    # e^-kappa I0, sigma^2 = 1 - I1/I0 and D = kappa sigma^2 - 1/2, which
    # cancel about 2 log10(kappa) digits
    with mpmath.workdps(30 + 2 * max(0, int(math.log10(kappa)))):
        k = mpmath.mpf(kappa)
        i0 = mpmath.besseli(0, k)
        sigma2 = 1 - mpmath.besseli(1, k) / i0
        return i0 * mpmath.exp(-k), sigma2, k * sigma2 - mpmath.mpf(1) / 2


def _ulps(mpmath, got, ref):
    # |got - ref| in units of eps |ref|, eps = 2^-52 (one ulp of 1.0 and
    # at least one ulp of ref), or of the subnormal spacing 5e-324
    return float(abs(got - ref) / max(abs(ref) * mpmath.mpf(2) ** -52, mpmath.mpf(5e-324)))


def test_per_kappa_kernel_matches_mpmath_on_both_sides_of_the_hankel_switch():
    # from kappa = 64 up to _KAPPA_MAX (sigma^2 and D subnormal at the top)
    # the Hankel branch holds i0e and sigma^2 within 2 ulp and D within
    # 1e-15 (or one subnormal spacing); below 64 the trapezoid holds its
    # own bound, 2e-15, for i0e and sigma^2, and D = kappa sigma^2 - 1/2
    # carries sigma^2's error: 2e-15 of kappa sigma^2
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261021)
    above = [64.0, math.nextafter(64.0, math.inf), 1e100, 1e300, 2.5e307, backend._KAPPA_MAX]
    above += [10.0 ** rng.uniform(math.log10(64.0), 6.0) for _ in range(60)]
    above += [10.0 ** rng.uniform(6.0, 40.0) for _ in range(15)]
    below = [math.nextafter(64.0, 0.0)] + [10.0 ** rng.uniform(1.0, math.log10(64.0)) for _ in range(40)]
    for kappa in above + below:
        i0e_ref, sigma2_ref, d_ref = _per_kappa_reference(mpmath, kappa)
        got_i0e, got_sigma2, got_d = backend.i0e_sigma2(kappa)
        if kappa >= 64.0:
            assert _ulps(mpmath, got_i0e, i0e_ref) <= 2.0, kappa
            assert _ulps(mpmath, got_sigma2, sigma2_ref) <= 2.0, kappa
            assert float(abs(got_d - d_ref)) <= max(1e-15 * float(d_ref), 5e-324), kappa
        else:
            assert float(abs(got_i0e - i0e_ref) / i0e_ref) <= 2e-15, kappa
            assert float(abs(got_sigma2 - sigma2_ref) / sigma2_ref) <= 2e-15, kappa
            assert float(abs(got_d - d_ref)) <= 2e-15 * kappa * float(sigma2_ref), kappa
