import contextlib
import math
import random
import re
import sys

import pytest
from references import (
    KRONROD_CLASS_ERROR_PER_WIDTH,
    KRONROD_CLASS_WIDTH2,
    NARROW_ERROR_PER_WIDTH,
    NARROW_WIDTH2,
    adaptive_quadrature,
    bessel_i0_integral,
    gauss7_ellipse_bound,
    gauss7_panel,
    gk15_panel,
    kronrod_class,
    kronrod_ellipse_bound,
    kronrod_k_panels,
    kronrod_value,
    narrow_gauss7,
    rule_width,
    scaled_density,
    vm_cdf_sweep_every_segment,
    vm_panel_index_loop,
    vm_scaled_mass_k_panels,
)

from circbridge import backend, bessel, cli, expansions, oracle
from circbridge.distributions import VonMisesParams, WrappedNormalParams, vm_density, wn_density
from circbridge.expansions import BulkSpec, _inverse_powers, log_ratio_exact
from circbridge.oracle import (
    QuadratureError,
    residual_scan,
    slope_fit,
    vm_cdf_quadrature,
    vm_cdf_sweep,
)


# ----------------------------------------------------------- quadrature


def test_integrates_constant_exactly():
    r = adaptive_quadrature(lambda t: 1.0, 0.0, 1.0, 1e-12)
    assert r.value == 1.0
    assert r.evaluations == 15


def test_vm_normalization():
    p = VonMisesParams(0.0, 5.0)
    r = adaptive_quadrature(lambda th: vm_density(p, th), -math.pi, math.pi, 1e-11)
    assert abs(r.value - 1.0) <= 1e-10
    assert r.abs_error_estimate <= 1e-11
    # full period starting at the mode: peak sits on both endpoints
    r2 = adaptive_quadrature(lambda th: vm_density(p, th), 0.0, 2.0 * math.pi, 1e-11)
    assert abs(r2.value - 1.0) <= 1e-10


def test_cosine_cancels_over_half_period():
    r = adaptive_quadrature(math.cos, 0.0, math.pi, 1e-12)
    assert abs(r.value) <= 1e-12


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-12])
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: adaptive_quadrature(math.cos, 0.0, 1.0, tol),
        lambda tol: vm_cdf_quadrature(VonMisesParams(0.0, 100.0), 0.1, tol),
        lambda tol: bessel_i0_integral(2.0, tol),
        lambda tol: wn_density(WrappedNormalParams(0.0, 1.0), 0.0, tol),
    ],
    ids=["adaptive_quadrature", "vm_cdf_quadrature", "bessel_i0_integral", "wn_density"],
)
def test_tol_must_be_finite_and_positive(call, tol):
    with pytest.raises(ValueError, match="^tol must be finite and > 0"):
        call(tol)


def test_quadrature_validates_input():
    with pytest.raises(ValueError):
        adaptive_quadrature(math.sin, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        adaptive_quadrature(math.sin, 0.0, 1.0, 0.0)


def test_quadrature_nonconvergence_raises():
    # no panel meets tol=1e-300, so bisection fails at its fixed depth
    p = VonMisesParams(0.0, 500.0)
    with pytest.raises(QuadratureError):
        adaptive_quadrature(lambda th: vm_density(p, th), -math.pi, math.pi, 1e-300)
    with pytest.raises(QuadratureError):
        adaptive_quadrature(lambda t: 1.0 if t > 0.3 else 0.0, 0.0, 1.0, 1e-300)


def test_quadrature_halving_tolerance_never_hurts():
    p = VonMisesParams(0.0, 5.0)
    tol = 1e-3
    errors = []
    for _ in range(12):
        r = adaptive_quadrature(lambda th: vm_density(p, th), -math.pi, math.pi, tol)
        errors.append(abs(r.value - 1.0))
        tol *= 0.5
    assert all(b <= a for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------- kernels


def test_backend_name_is_python():
    assert backend.backend_name() == "python"


def test_vm_scaled_mass_empty_interval():
    assert backend.vm_scaled_mass(5.0, 1.0, 1.0, 1e-10) == (0.0, 0.0, 0)


def test_vm_scaled_mass_at_kappa_zero_errs_by_its_rounding_allowance_alone(monkeypatch):
    # at kappa = 0 every node gives 1.0 and every rule is exact, so at a
    # tol below the class's beta w each width takes one rule (narrow, class
    # and past the class) with the error 50 eps K, or c eps w + 50 eps K on
    # the narrow rule; a tol below 50 eps K raises QuadratureError, and
    # the ellipse bound, which has no value at kappa = 0, is never called
    calls = []
    bound = backend._vm_kronrod_bound

    def recorded(kappa, h):
        calls.append(kappa)
        return bound(kappa, h)

    monkeypatch.setattr(backend, "_vm_kronrod_bound", recorded)
    eps = sys.float_info.epsilon
    for a, b, rule in ((0.0, 0.5, 7), (-0.5, 2.5, 15), (0.0, 3.1, 15), (-math.pi, math.pi, 15)):
        value, error, evaluations = backend.vm_scaled_mass(0.0, a, b, 1e-13)
        assert evaluations == rule
        narrow = backend._G7_ERROR * (b - a) if rule == 7 else 0.0
        assert error == narrow + 50.0 * eps * value
        assert abs(value - (b - a)) <= 4.0 * eps * (b - a)
        # no Kronrod panel runs after the narrow rule fails on its rounding
        with pytest.raises(QuadratureError, match=r"panels=%d," % (rule == 15)):
            backend.vm_scaled_mass(0.0, a, b, 1e-300)
    assert calls == []


@pytest.mark.parametrize(
    "b, calls, message",
    [
        (0.04, (1, 0, 0), "panels=0, err=4.327e-16, rounding=4.325e-16"),
        (0.05, (0, 1, 0), "panels=1, err=5.328e-16, rounding=5.328e-16"),
    ],
)
def test_vm_scaled_mass_raises_once_a_rounding_allowance_alone_reaches_tol(b, calls, message, count_calls):
    # at tol 5e-17, below 50 eps of the mass: [0, 0.04] is narrow, and no
    # Kronrod panel runs after Gauss-7; [0, 0.05] is just past the narrow
    # width (w^2 2 kappa = 0.5), and its one panel computes no ellipse bound
    gauss7 = count_calls(backend, "_vm_gauss7")
    panels = count_calls(backend, "_vm_panel")
    bounds = count_calls(backend, "_vm_kronrod_bound")
    with pytest.raises(QuadratureError, match=re.escape(message)):
        backend.vm_scaled_mass(100.0, 0.0, b, 5e-17)
    assert (len(gauss7), len(panels), len(bounds)) == calls


@pytest.mark.parametrize("kappa", [0.5, 5.0, 100.0, 2048.0, 1e5])
@pytest.mark.parametrize("hi", [-3.0, -0.01, 0.02, 0.5, math.pi])
def test_vm_scaled_mass_matches_generic_engine_bitwise(kappa, hi):
    # the in-line vm panel must be the generic panel applied to the
    # scaled density, operation for operation, and the narrow rule the
    # generic panel's Gauss half ([-pi, -3] is narrow at kappa = 0.5 and
    # in the Kronrod class at kappa = 100); at kappa >= 2048, 64 equal
    # panels can be too wide for the peak inside [-pi, hi], and then both
    # raise the same error
    got = _mass_or_error(backend.vm_scaled_mass, kappa, -math.pi, hi, 1e-13)
    assert got == _mass_or_error(_generic_engine, kappa, -math.pi, hi, 1e-13)


@pytest.mark.parametrize("kappa", [2048.0, 1e5])
@pytest.mark.parametrize("ends", [(0.0, 20.0), (-10.0, 10.0), (-3.0, 17.0)])
def test_vm_scaled_mass_k_panels_over_the_mode_match_generic_engine_bitwise(kappa, ends):
    # 20 sigma, the widest segment the CDF sweep integrates, with the
    # mode at an end or inside: certified on 2 .. 64 equal panels
    sigma = VonMisesParams(0.0, kappa).sigma
    a, b = ends[0] * sigma, ends[1] * sigma
    got = backend.vm_scaled_mass(kappa, a, b, 1e-13)
    assert 15 < got[2] <= 15 * 65
    assert got == _generic_engine(kappa, a, b, 1e-13)


def _generic_engine(kappa, a, b, tol):
    # the kernel's routes on the generic panel and the scaled density
    def f(t):
        u = math.sin(0.5 * t)
        return math.exp(-2.0 * kappa * (u * u))

    return (
        narrow_gauss7(kappa, f, a, b, tol)
        or kronrod_class(kappa, f, a, b, tol)
        or kronrod_k_panels(kronrod_value, f, kappa, a, b, tol)
    )


def test_vm_scaled_mass_evaluates_at_most_65_panels(monkeypatch):
    # counted at `_vm_panel`: a call evaluates one panel, then k <= 64
    # more, and the count it returns is 15 per panel.  A call raises with
    # no panel run when the narrow rule's rounding allowance 50 eps G
    # reaches tol (panels=0), with none of the k panels run when its first
    # panel's 50 eps K does (panels=1) or 64 panels cannot be certified
    # (panels=64), else after all k.  The first case puts tol at the
    # narrow rule's rounding noise; the next two lie over the mode, where
    # 64 panels are too wide
    panel = backend._vm_panel
    spans = []

    def recorded(m, a, b):
        spans.append((a, b))
        return panel(m, a, b)

    monkeypatch.setattr(backend, "_vm_panel", recorded)
    cases = [
        (5813591.037352941, -0.009194654792658241, -0.009194542863874989, 2.380096336369539e-129),
        (2048.0, -math.pi, math.pi, 1e-13),
        (1e5, -math.pi, 0.02, 1e-13),
    ]
    cases += _scaled_mass_cases(random.Random(20261105), 2000) + _k_panel_cases(random.Random(20261107), 1000)
    outcomes = dict.fromkeys(["one rule", "k panels", "narrow rounding", "rounding", "64 panels"], 0)
    for kappa, a, b, tol in cases:
        del spans[:]
        try:
            _value, _error, evaluations = backend.vm_scaled_mass(kappa, a, b, tol)
        except QuadratureError as exc:
            # the message names the call's ends so that they round-trip,
            # so a panel narrower than 6 significant digits prints two ends
            ends = tuple(map(float, re.search(r"on \[(\S+), (\S+)\]", str(exc)).groups()))
            assert ends == (a, b)
            k = int(re.search(r"panels=(\d+)", str(exc)).group(1))
            if k == 0:
                assert spans == [], (kappa, a, b, tol)
                assert 50.0 * sys.float_info.epsilon * backend._vm_gauss7(-2.0 * kappa, a, b) >= tol
                outcomes["narrow rounding"] += 1
            elif 50.0 * sys.float_info.epsilon * panel(-2.0 * kappa, a, b) >= tol:
                assert k == len(spans) == 1, (kappa, a, b, tol)
                outcomes["rounding"] += 1
            elif len(spans) == 1:
                assert k == 64, (kappa, a, b, tol)
                outcomes["64 panels"] += 1
            else:
                assert len(spans) == k + 1, (kappa, a, b, tol)
        else:
            assert len(spans) == evaluations // 15
            outcomes["one rule" if len(spans) <= 1 else "k panels"] += 1
        assert len(spans) <= 65
    assert outcomes["64 panels"] >= 2, outcomes
    rounding = outcomes["narrow rounding"] + outcomes["rounding"]
    assert min(outcomes["one rule"], outcomes["k panels"], rounding) >= 200, outcomes
    assert min(outcomes["narrow rounding"], outcomes["rounding"]) >= 50, outcomes


def _mass_or_error(mass, kappa, a, b, tol):
    try:
        return mass(kappa, a, b, tol)
    except QuadratureError as exc:
        return str(exc)


def test_vm_scaled_mass_and_panel_equal_the_k_panel_references():
    # the kernel's node-table panel, its narrow Gauss-7 rule, its Kronrod
    # class, its ellipse bound and its k equal panels match the
    # references in every bit of a value, error, count or error message,
    # whether the narrow rule settles the call, the first panel passes on
    # the class's constant or on the ellipse bound, k panels settle it or
    # the call raises.  Three cases in ten are panels a few sigma wide
    # about the mode, at tols where a bound may certify one panel; 400
    # more lie within the narrow width, at tols about the narrow rule's
    # error, and 400 within the class width, about the class's
    rng = random.Random(20261019)
    outcomes = dict.fromkeys(["narrow", "class", "certified", "k panels", "error"], 0)
    cases = (
        _scaled_mass_cases(rng, 2000)
        + _narrow_cases(random.Random(20261031), 400)
        + _class_cases(random.Random(20261102), 400)
        + _k_panel_cases(random.Random(20261106), 400)
    )
    for kappa, a, b, tol in cases:
        panel = backend._vm_panel(-2.0 * kappa, a, b)
        assert panel == vm_panel_index_loop(-2.0 * kappa, a, b)
        assert backend._vm_gauss7(-2.0 * kappa, a, b) == gauss7_panel(scaled_density(kappa), a, b)
        got = _mass_or_error(backend.vm_scaled_mass, kappa, a, b, tol)
        assert got == _mass_or_error(vm_scaled_mass_k_panels, kappa, a, b, tol)
        if isinstance(got, str):
            outcomes["error"] += 1
        elif got[2] == 7:
            outcomes["narrow"] += 1
        elif got[2] > 15:
            outcomes["k panels"] += 1
        elif got[1] == _class_error(a, b, got[0]):
            outcomes["class"] += 1
        else:
            outcomes["certified"] += 1
    assert min(outcomes.values()) >= 200, outcomes


def _scaled_mass_cases(rng, count):
    cases = []
    for _ in range(count):
        kappa = 10.0 ** rng.uniform(-3.0, 8.0)
        if rng.random() < 0.3:
            sigma = 1.0 / math.sqrt(kappa)
            width = min(rng.uniform(1.5, 4.5) * sigma, 3.0)
            a = -width * rng.random()
            tol = sigma * 10.0 ** rng.uniform(-14.0, -7.0)
        else:
            width = 10.0 ** rng.uniform(-15.0, math.log10(3.0))
            a = rng.uniform(-math.pi, math.pi - width)
            tol = 10.0 ** rng.uniform(-300.0, -6.0)
        cases.append((kappa, a, a + width, tol))
    return cases


def _narrow_cases(rng, count):
    # intervals within the narrow width, anywhere in [-pi, pi], at tols
    # about the narrow rule's error, so that some take it and the rest
    # fall through to the Kronrod panel
    cases = []
    for _ in range(count):
        kappa = 10.0 ** rng.uniform(-3.0, 8.0)
        width = rng.uniform(0.01, 1.0) * rule_width(kappa, NARROW_WIDTH2)
        a = rng.uniform(-math.pi, math.pi - width)
        cases.append((kappa, a, a + width, width * 10.0 ** rng.uniform(-17.0, -13.0)))
    return cases


def _class_cases(rng, count):
    # intervals over the mode, from half the class width to all of it, at
    # tols about the class's error: the class's constant certifies some of
    # the panels and not the rest
    cases = []
    for _ in range(count):
        kappa = 10.0 ** rng.uniform(-3.0, 8.0)
        width = rng.uniform(0.5, 1.0) * rule_width(kappa, KRONROD_CLASS_WIDTH2)
        a = -width * rng.random()
        cases.append((kappa, a, a + width, width * 10.0 ** rng.uniform(-12.6, -11.6)))
    return cases


def _k_panel_cases(rng, count):
    # the segments of point CDFs past the class, [0, t] or [-t, 0] with t
    # 3 to 20 sigma (at most pi), at tols from the contract's floor 2e-14
    # up, times the segment's mass scale: one panel fails there, and k
    # panels settle most of them
    cases = []
    for _ in range(count):
        kappa = 10.0 ** rng.uniform(-3.0, 8.0)
        sigma = min(1.0 / math.sqrt(kappa), 1.0)
        t = min(rng.uniform(3.0, 20.0) * sigma, math.pi)
        a = -t if rng.random() < 0.5 else 0.0
        cases.append((kappa, a, a + t, sigma * 10.0 ** rng.uniform(-13.4, -9.0)))
    return cases


def _class_error(a, b, value):
    # the error that the Kronrod class returns
    return KRONROD_CLASS_ERROR_PER_WIDTH * (b - a) + 50.0 * sys.float_info.epsilon * value


@pytest.mark.parametrize("kappa", [5e-324, 1e-310, 1e-300, 1e-3, 1.0, 1e8, 1e300, backend._KAPPA_MAX])
def test_vm_kronrod_bound_neither_overflows_nor_divides_by_zero(kappa):
    # from the smallest float to the kernel's largest kappa, and at any
    # half-width, the bound is a number no smaller than 0, or inf; never
    # nan and never an exception
    for h in (5e-324, 1e-300, 1e-20, 1e-5, 0.1, math.pi):
        assert backend._vm_kronrod_bound(kappa, h) >= 0.0


def test_vm_kronrod_bound_equals_its_loop_form():
    # the unrolled fixed-point steps and the compare-and-assign caps give
    # the bound of the loop over min() in every bit
    rng = random.Random(20261030)
    for _ in range(20000):
        kappa = 10.0 ** rng.uniform(-3.0, 12.0)
        h = 10.0 ** rng.uniform(-12.0, 0.2)
        assert backend._vm_kronrod_bound(kappa, h) == kronrod_ellipse_bound(kappa, h)


def test_narrow_rule_error_is_certified_at_its_widest():
    # the Gauss-7 ellipse bound at the widest narrow interval is within
    # the c eps w that `vm_scaled_mass` returns for it; a narrower one is
    # within it too, since at the same y the bound per unit width falls
    # as the width does
    eps = sys.float_info.epsilon
    assert backend._G7_WIDTH2 == NARROW_WIDTH2
    assert backend._G7_ERROR == NARROW_ERROR_PER_WIDTH * eps
    kappas = [0.0, 0.5] + [10.0 ** (-3.0 + 15.0 * i / 1500) for i in range(1501)]
    worst = 0.0
    for kappa in kappas:
        w = rule_width(kappa, NARROW_WIDTH2)
        ratio = gauss7_ellipse_bound(kappa, 0.5 * w) / (eps * w)
        assert ratio <= NARROW_ERROR_PER_WIDTH, kappa
        worst = max(worst, ratio)
    # the worst case, near kappa = 1/2, uses most of c
    assert worst > 0.8 * NARROW_ERROR_PER_WIDTH


def test_narrow_rule_is_within_its_error_of_mpmath():
    # 2,000 seeded intervals no wider than the narrow width, half within
    # 6 sigma of the mode and half anywhere in [0, pi]: each takes the
    # narrow rule at tol 1 and lies within its returned error of the
    # 30-digit integral
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261101)
    with mpmath.workdps(30):
        for i in range(2000):
            kappa = 10.0 ** rng.uniform(-3.0, 12.0)
            width = rng.random() * rule_width(kappa, NARROW_WIDTH2)
            room = math.pi - width
            if i % 2:
                room = min(room, 6.0 / math.sqrt(kappa))
            a = rng.uniform(0.0, room)
            b = a + width
            if not a < b:
                continue
            value, error, evaluations = backend.vm_scaled_mass(kappa, a, b, 1.0)
            assert evaluations == 7
            assert abs(value - _mpmath_mass(mpmath, kappa, a, b)) <= error, (kappa, a, b)


def test_kronrod_class_error_is_certified_at_its_widest():
    # the Kronrod ellipse bound at the widest class interval and at 1/2 to 1/1024 of that width is within the beta w
    # that `vm_scaled_mass` returns for a class panel.  So wherever the
    # class certifies a panel, the loop's ellipse bound would have accepted
    # it too, and the class returns the value the loop would have
    assert backend._K15_WIDTH2 == KRONROD_CLASS_WIDTH2
    assert backend._K15_ERROR == KRONROD_CLASS_ERROR_PER_WIDTH
    kappas = [0.5] + [10.0 ** (-3.0 + 15.0 * i / 1500) for i in range(1501)]
    worst = 0.0
    for kappa in kappas:
        widest = rule_width(kappa, KRONROD_CLASS_WIDTH2)
        for j in range(11):
            w = widest * 0.5 ** j
            ratio = kronrod_ellipse_bound(kappa, 0.5 * w) / w
            assert ratio <= KRONROD_CLASS_ERROR_PER_WIDTH, (kappa, j)
            worst = max(worst, ratio)
    # the worst case, at kappa = 1/2 and w = 3, uses most of beta
    assert worst > 0.8 * KRONROD_CLASS_ERROR_PER_WIDTH


def test_kronrod_class_is_within_its_error_of_mpmath():
    # 2,000 seeded intervals past the narrow width and within the class
    # width, half over the mode and half anywhere in [0, pi], at tol = the
    # class's error beta w + 50 eps |K|: each comes back as one panel with
    # that error, and lies within it of the 30-digit integral (their
    # distance rounded to a double)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261103)
    with mpmath.workdps(30):
        for i in range(2000):
            kappa = 10.0 ** rng.uniform(-3.0, 12.0)
            width = rng.uniform(0.25, 1.0) * rule_width(kappa, KRONROD_CLASS_WIDTH2)
            a = -width * rng.random() if i % 2 else rng.uniform(0.0, math.pi - width)
            b = a + width
            k = backend._vm_panel(-2.0 * kappa, a, b)
            tol = _class_error(a, b, k)
            assert backend.vm_scaled_mass(kappa, a, b, tol) == (k, tol, 15)
            assert float(abs(k - _mpmath_mass(mpmath, kappa, a, b))) <= tol, (kappa, a, b)


def test_a_class_panel_errs_by_at_least_its_distance_to_mpmath():
    # K15 with no rounding term once returned the error 0.0 here, its
    # Gauss/Kronrod difference, while the 30-digit integral lies 1.07e-16
    # away; the certified error covers that distance
    mpmath = pytest.importorskip("mpmath")
    kappa, a, b = 0.02195831726912826, 0.3935442751506783, 1.5083261958883558
    value, error, evaluations = backend.vm_scaled_mass(kappa, a, b, 1e-12)
    assert evaluations == 15
    with mpmath.workdps(30):
        assert abs(value - _mpmath_mass(mpmath, kappa, a, b)) <= error


def test_a_class_panel_that_fails_is_not_evaluated_again(monkeypatch):
    # at kappa = 1/2 on [0, 3] and tol 1e-13 the class panel fails
    # beta w = 9e-13, and the ellipse bound cannot certify it either:
    # k equal panels follow, and each panel, that one too, is evaluated once
    panel = backend._vm_panel
    spans = []

    def recorded(m, a, b):
        spans.append((a, b))
        return panel(m, a, b)

    monkeypatch.setattr(backend, "_vm_panel", recorded)
    _value, _error, evaluations = backend.vm_scaled_mass(0.5, 0.0, 3.0, 1e-13)
    assert evaluations > 15
    assert spans[0] == (0.0, 3.0)
    assert len(spans) == len(set(spans)) == evaluations // 15


def _mpmath_mass(mpmath, kappa, a, b):
    # the scaled mass on [a, b], split at the mode when it lies inside;
    # Gauss-Legendre suits the entire integrand and is the faster rule here
    k = mpmath.mpf(kappa)
    pts = [mpmath.mpf(a)] + ([0] if a < 0.0 < b else []) + [mpmath.mpf(b)]
    return mpmath.quad(
        lambda u: mpmath.exp(-2 * k * mpmath.sin(u / 2) ** 2), pts, method="gauss-legendre"
    )


def test_vm_scaled_mass_certified_panels_are_within_their_estimate():
    # a panel that comes back as one panel at tol = |K - G| / 2, half the
    # generic panel's Gauss/Kronrod difference, was certified by a bound
    # far below that difference; its value must then lie within the
    # returned error of the integral at 40 digits
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261020)
    certified = 0
    with mpmath.workdps(40):
        for _ in range(300):
            kappa = 10.0 ** rng.uniform(-3.0, 8.0)
            sigma = 1.0 / math.sqrt(kappa)
            width = min(10.0 ** rng.uniform(-1.0, 0.8) * sigma, 2.0)
            a = max(rng.uniform(-4.0, 4.0) * sigma - 0.5 * width, -math.pi)
            b = min(a + width, math.pi)
            err = gk15_panel(scaled_density(kappa), a, b)[1]
            try:
                value, estimate, evaluations = backend.vm_scaled_mass(kappa, a, b, 0.5 * err)
            except QuadratureError:  # k panels cannot be certified either
                continue
            if err > 0.0 and evaluations == 15:
                certified += 1
                assert abs(value - _mpmath_mass(mpmath, kappa, a, b)) <= estimate, (kappa, a, b)
    assert certified >= 100


def test_k_panel_segments_are_within_their_error_of_mpmath():
    # 300 seeded point-CDF segments [0, t], t up to the sweep's reach
    # min(pi, 20 sigma), that one panel cannot settle at a CDF tol of
    # 1e-9, 1e-12, 1e-13 or the contract's floor 2e-14: each takes at
    # most 8 equal panels and lies within its returned error of the
    # integral at 40 digits
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261108)
    found = 0
    with mpmath.workdps(40):
        for _ in range(5000):
            p = VonMisesParams(0.0, 10.0 ** rng.uniform(-3.0, 8.0))
            t = rng.uniform(0.0, min(math.pi, 20.0 * p.sigma))
            tol = rng.choice((1e-9, 1e-12, 1e-13, 2e-14)) * (2.0 * math.pi * p.i0e)
            value, error, evaluations = backend.vm_scaled_mass(p.kappa, 0.0, t, tol)
            if evaluations <= 15:
                continue
            assert evaluations <= 15 * (8 + 1), (p.kappa, t, tol)
            assert abs(value - _mpmath_mass(mpmath, p.kappa, 0.0, t)) <= error, (p.kappa, t, tol)
            found += 1
            if found == 300:
                break
    assert found == 300


# --------------------------------------------------- integral representation


def test_i0_integral_at_zero():
    assert abs(bessel_i0_integral(0.0, 1e-13) - 1.0) <= 1e-14


def test_i0_integral_matches_series():
    got = bessel_i0_integral(2.0, 1e-13)
    ref = bessel.i0e(2.0) * math.exp(2.0)
    assert abs(got - ref) / ref <= 1e-12


def test_i0_integral_vs_asymptotic_scaled():
    # the order-3 bracket truncates at ~0.11/kappa^4, which sets the
    # attainable agreement at each concentration
    scaled30 = bessel_i0_integral(30.0, 1e-13) * math.exp(-30.0)
    asym30 = bessel.bessel_i0e_asymptotic(30.0, 3) / math.sqrt(2.0 * math.pi * 30.0)
    assert abs(scaled30 - asym30) / asym30 <= 3e-7
    scaled150 = bessel_i0_integral(150.0, 1e-13) * math.exp(-150.0)
    asym150 = bessel.bessel_i0e_asymptotic(150.0, 3) / math.sqrt(2.0 * math.pi * 150.0)
    assert abs(scaled150 - asym150) / asym150 <= 1e-9


def test_i0_integral_guards():
    with pytest.raises(ValueError):
        bessel_i0_integral(701.0, 1e-10)
    with pytest.raises(ValueError):
        bessel_i0_integral(-1.0, 1e-10)


def test_i0_integral_independent_of_series(monkeypatch):
    # structural independence: the integral reference must not touch the
    # per-kappa kernel it checks
    def boom(*a, **k):
        raise AssertionError("per-kappa kernel used by the integral reference")

    monkeypatch.setattr(backend, "i0e_sigma2", boom)
    got = bessel_i0_integral(2.0, 1e-13)
    monkeypatch.undo()
    ref = bessel.i0e(2.0) * math.exp(2.0)
    assert abs(got - ref) / ref <= 1e-12


# ------------------------------------------------------------- vm cdf


def test_vm_cdf_half_at_mu():
    p = VonMisesParams(0.0, 20.0)
    assert abs(vm_cdf_quadrature(p, 0.0, 1e-13) - 0.5) <= 1e-12


def test_vm_cdf_one_at_window_end():
    p = VonMisesParams(0.0, 20.0)
    assert abs(vm_cdf_quadrature(p, math.pi, 1e-11) - 1.0) <= 1e-10


def test_vm_cdf_tiny_near_window_start():
    p = VonMisesParams(0.0, 20.0)
    assert vm_cdf_quadrature(p, -math.pi + 1e-9, 1e-13) <= 1e-12


def test_vm_cdf_at_zero_kappa_is_uniform():
    # kappa = 0 is the uniform law: F(x) = 1/2 + (x - mu) / (2 pi)
    p = VonMisesParams(1.0, 0.0)
    tol = 1e-12
    xs = [p.mu - math.pi + 2.0 * math.pi * j / 200.0 for j in range(1, 201)]
    got = vm_cdf_sweep(p, xs, tol)
    assert max(abs(g - (0.5 + (x - p.mu) / (2.0 * math.pi))) for g, x in zip(got, xs)) <= tol


def test_vm_cdf_monotone():
    p = VonMisesParams(0.0, 20.0)
    xs = [-math.pi + (j + 1) * (2.0 * math.pi / 52.0) for j in range(51)]
    vals = [vm_cdf_quadrature(p, x, 1e-12) for x in xs]
    # adjacent quadratures round independently, so the saturated end can
    # wobble by an ulp of 1.0
    assert all(b >= a - 5e-16 for a, b in zip(vals, vals[1:]))


def test_vm_cdf_nonconvergence_raises():
    # x = mu needs no quadrature, so the failing points lie off the mode;
    # at kappa = 0.5 shorter segments (x = 1.0, -2.0, 3.0) still converge
    cases = [(0.5, math.pi)] + [(k, x) for k in (100.0, 500.0, 3000.0) for x in (1.0, -2.0)]
    # at tol 1e-300 the first panel's rounding allowance 50 eps K alone
    # exceeds the segment's tol, so the call raises after that one panel
    message = r"^no convergence on \[0\.0, \S+\] \(panels=1, err=\S+, rounding=\S+, tol=\S+\)$"
    for kappa, x in cases:
        with pytest.raises(QuadratureError, match=message):
            vm_cdf_quadrature(VonMisesParams(0.0, kappa), x, 1e-300)


def test_vm_cdf_window_domain():
    p = VonMisesParams(0.0, 5.0)
    with pytest.raises(ValueError):
        vm_cdf_quadrature(p, -math.pi, 1e-10)
    with pytest.raises(ValueError):
        vm_cdf_quadrature(p, math.pi + 0.1, 1e-10)
    # kappa = 0, the uniform law, is in the domain
    uniform = vm_cdf_quadrature(VonMisesParams(0.0, 0.0), 0.5, 1e-10)
    assert abs(uniform - (0.5 + 0.5 / (2.0 * math.pi))) <= 1e-10


def test_vm_cdf_may_exceed_one_by_at_most_tol():
    # the result is within tol of F and is not clamped, so at either end of
    # the window it may leave [0, 1] by up to tol
    tol = 1e-12
    p = VonMisesParams(0.0, 3000.0)
    top = vm_cdf_quadrature(p, math.pi, tol)
    bottom = vm_cdf_quadrature(p, -math.pi + 1e-15, tol)
    assert -tol <= bottom <= tol
    assert 1.0 - tol <= top <= 1.0 + tol


def test_vm_cdf_very_large_kappa_clipped_domain():
    p = VonMisesParams(0.0, 1e5)
    assert abs(vm_cdf_quadrature(p, 0.0, 1e-12) - 0.5) <= 1e-11
    assert abs(vm_cdf_quadrature(p, math.pi, 1e-11) - 1.0) <= 1e-10


def test_vm_cdf_pinned_value():
    # one point through the sweep: 1/2 plus the mass on [mu, x], one
    # segment at tol / inv_norm, so reruns give these bits
    got = vm_cdf_quadrature(VonMisesParams(0.0, 100.0), 0.1)
    assert got == 0.8409395426154801
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        kappa = mpmath.mpf(100)
        mass = mpmath.quad(
            lambda t: mpmath.exp(-2 * kappa * mpmath.sin(t / 2) ** 2),
            [-mpmath.pi, -1, -0.3, 0, 0.1],
        )
        ref = mass / (2 * mpmath.pi * mpmath.besseli(0, kappa) * mpmath.exp(-kappa))
        assert abs(got - ref) <= 2e-16


def _sweep_grid(kappa, mu):
    # points out to 30 sigma (so the 20-sigma anchor lies inside), clipped
    # to the window, plus points in both tails
    sigma = VonMisesParams(mu, kappa).sigma
    ts = [j * 1.5 * sigma for j in range(-20, 21)] + [-3.0, -1.0, 1.0, 3.0, math.pi]
    return [mu + t for t in sorted(set(ts)) if -math.pi < t <= math.pi]


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
@pytest.mark.parametrize("kappa", [1e-3, 2.0, 299.5, 600.75, 4096.0, 1e5])
def test_vm_cdf_sweep_matches_per_point_within_tol(kappa, tol):
    p = VonMisesParams(1.0, kappa)
    xs = _sweep_grid(kappa, 1.0)
    swept = vm_cdf_sweep(p, xs, tol)
    assert len(swept) == len(xs)
    for x, f in zip(xs, swept):
        assert abs(f - vm_cdf_quadrature(p, x, tol)) <= tol


def test_vm_cdf_sweep_gives_the_tail_past_reach_one_share_of_tol():
    # `table --kappa 1e7 --grid 2001`'s points: 2,001 offsets 1.58 sigma
    # apart, all but about 25 past the 20 sigma reach.  A share of tol for
    # each of their ~1,000 segments would give the one over the mode less
    # than its rounding allowance 50 eps K at the default tol; with one
    # share for the whole tail it is certified, and each value is within
    # tol of the per-point one
    p = VonMisesParams(0.0, 1e7)
    xs = [1.58 * p.sigma * j for j in range(-1000, 1001)]
    swept = vm_cdf_sweep(p, xs)
    for x, f in zip(xs[980:1021], swept[980:1021]):
        assert abs(f - vm_cdf_quadrature(p, x)) <= 1e-12


@pytest.mark.parametrize("kappa", [1.0, 50.0, 1e4])
def test_vm_cdf_sweep_gives_a_segment_its_share_cannot_certify_the_unused_tol(kappa):
    # 2,000 points 1e-3 sigma apart from the mode and one at 19 sigma: the
    # last segment holds most of the mass, and its rounding allowance
    # 50 eps K alone exceeds its even share of tol, so it is integrated
    # again on what the 2,000 narrow segments left; each value is within
    # tol of the per-point one
    p = VonMisesParams(0.0, kappa)
    xs = [1e-3 * p.sigma * j for j in range(2000)] + [min(math.pi, 19.0 * p.sigma)]
    tol = 1e-12
    share = tol * 2.0 * math.pi * p.i0e / 2000
    with pytest.raises(backend.QuadratureError):
        backend.vm_scaled_mass(kappa, xs[1999], xs[2000], share)
    swept = vm_cdf_sweep(p, xs, tol)
    assert swept == vm_cdf_sweep_every_segment(p, xs, tol)
    for x, f in zip(xs[::100] + xs[-1:], swept[::100] + swept[-1:]):
        assert abs(f - vm_cdf_quadrature(p, x, tol)) <= tol


@pytest.mark.parametrize("kappa", [1.0, 50.0, 1e4])
def test_vm_cdf_sweep_integrates_only_its_late_segments_again(kappa, monkeypatch):
    # the point set above: the first pass makes one kernel call per
    # segment, and the second one more for each segment that raised at its
    # share, not a second call for every segment
    mass = backend.vm_scaled_mass
    calls, late = [], []

    def recorded(*args):
        calls.append(args[1:3])
        try:
            return mass(*args)
        except backend.QuadratureError:
            late.append(args[1:3])
            raise

    monkeypatch.setattr(backend, "vm_scaled_mass", recorded)
    p = VonMisesParams(0.0, kappa)
    xs = [1e-3 * p.sigma * j for j in range(2000)] + [min(math.pi, 19.0 * p.sigma)]
    vm_cdf_sweep(p, xs, 1e-12)
    n = len(xs) - 1
    assert late and len(calls) == n + len(late)
    assert calls[n:] == late


@pytest.mark.parametrize("lo", [-25.0, -19.0])
def test_vm_cdf_sweep_very_large_kappa_across_20_sigma(lo):
    # the farthest point lies 25 sigma out, below the mode or only above
    # it; either way the +20 sigma cut is made once and each value is
    # within tol of the per-point one
    p = VonMisesParams(0.0, 3e5)
    sigma = p.sigma
    xs = [(lo + 0.5 * j) * sigma for j in range(int(2 * (25.0 - lo)) + 1)]
    tol = 1e-12
    swept = vm_cdf_sweep(p, xs, tol)
    for x, f in zip(xs, swept):
        assert abs(f - vm_cdf_quadrature(p, x, tol)) <= tol
    assert abs(swept[-1] - 1.0) <= tol


def test_vm_cdf_sweep_is_monotone_and_repeats_equal_points():
    # every value is a running sum of non-negative segment masses
    p = VonMisesParams(0.0, 20.0)
    xs = [-math.pi + (j + 1) * (2.0 * math.pi / 52.0) for j in range(51)]
    xs[10:10] = [xs[10]]
    vals = vm_cdf_sweep(p, xs, 1e-12)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[10] == vals[11]


@pytest.mark.parametrize("mu", [0.0, 1.0, -2.5])
def test_vm_cdf_point_integrates_only_from_mu(count_calls, mu):
    # F(mu) is exactly 1/2 with no quadrature; a point within 20 sigma is
    # one segment, and so is one beyond it: the cut at 20 sigma ends the
    # only segment integrated
    calls = count_calls(backend, "vm_scaled_mass")
    for kappa in (1e-3, 2.0, 1e6):
        p = VonMisesParams(mu, kappa)
        assert vm_cdf_quadrature(p, p.mu) == 0.5
        assert vm_cdf_sweep(p, [p.mu, p.mu]) == [0.5, 0.5]
    assert calls == []
    p = VonMisesParams(mu, 1e6)
    for t in (-3.0, 19.0, -25.0, 1000.0):
        del calls[:]
        vm_cdf_quadrature(p, p.mu + t * p.sigma)
        assert len(calls) == 1


@pytest.mark.parametrize("kappa", [1e-3, 2.0, 100.0, 1e4, 1e6])
def test_vm_cdf_is_symmetric_about_mu(kappa):
    # F(mu - t) and F(mu + t) are 1/2 minus and plus the same mass
    p = VonMisesParams(0.0, kappa)
    sigma = p.sigma
    ts = sorted(t for t in (0.3 * sigma, 2.0 * sigma, 30.0 * sigma, 1.0, 3.14) if t < math.pi)
    swept = vm_cdf_sweep(p, [-t for t in reversed(ts)] + ts)
    below = swept[len(ts) - 1 :: -1]
    above = swept[len(ts) :]
    for t, lo, hi in zip(ts, below, above):
        assert abs(lo + hi - 1.0) <= 4 * math.ulp(1.0)
        assert abs(vm_cdf_quadrature(p, -t) + vm_cdf_quadrature(p, t) - 1.0) <= 4 * math.ulp(1.0)


def _mpmath_cdf(mpmath, kappa, t):
    # mass from -pi to t, integrated forwards (not from the mode), split at
    # a few widths 1/sqrt(kappa) so the quadrature resolves the peak
    k = mpmath.mpf(kappa)
    width = min(mpmath.pi, 1 / mpmath.sqrt(k))
    cuts = [c * width for c in (-40, -8, -2, 0, 2, 8, 40)]
    pts = [-mpmath.pi] + [c for c in cuts if -mpmath.pi < c < t] + [t]
    mass = mpmath.quad(lambda u: mpmath.exp(-2 * k * mpmath.sin(u / 2) ** 2), pts)
    return mass / (2 * mpmath.pi * mpmath.besseli(0, k) * mpmath.exp(-k))


@pytest.mark.parametrize("kappa", [1e-3, 0.5, 2.0, 100.0, 1e4, 1e6])
def test_vm_cdf_matches_mpmath_on_both_sides(kappa):
    mpmath = pytest.importorskip("mpmath")
    tol = 1e-12
    mu = 0.75
    p = VonMisesParams(mu, kappa)
    sigma = p.sigma
    ts = [0.3 * sigma, 2.0 * sigma, 7.0 * sigma, 1.0, math.pi - 1e-6]
    ts = sorted(s * t for t in ts for s in (-1.0, 1.0) if t < math.pi) + [math.pi]
    xs = [mu + t for t in ts]
    swept = vm_cdf_sweep(p, xs, tol)
    with mpmath.workdps(30):
        for x, f in zip(xs, swept):
            ref = _mpmath_cdf(mpmath, kappa, mpmath.mpf(x) - mpmath.mpf(mu))
            assert abs(f - ref) <= tol
            assert abs(vm_cdf_quadrature(p, x, tol) - ref) <= tol


def test_point_cdfs_match_mpmath_to_half_an_ulp_of_one():
    # seeded points within 6 sigma of mu or anywhere in the window, at the
    # default tol: one rule or k equal panels settle each one, and none is off by more than 5e-16 from the
    # CDF at 20 digits (Gauss-Legendre in mpmath, to keep the test short)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261021)
    with mpmath.workdps(20):
        for i in range(200):
            kappa = 10.0 ** rng.uniform(-3.0, 6.0)
            p = VonMisesParams(0.0, kappa)
            t = rng.uniform(-6.0, 6.0) * p.sigma if i % 2 else rng.uniform(-math.pi, math.pi)
            if not -math.pi < t <= math.pi:
                continue
            k = mpmath.mpf(kappa)
            width = min(mpmath.pi, 1 / mpmath.sqrt(k))
            cuts = [c * width for c in (2, 8, 40) if c * width < abs(t)]
            mass = mpmath.quad(
                lambda u: mpmath.exp(-2 * k * mpmath.sin(u / 2) ** 2),
                [0] + cuts + [abs(t)],
                method="gauss-legendre",
            )
            half = mass / (2 * mpmath.pi * mpmath.besseli(0, k) * mpmath.exp(-k))
            ref = 0.5 + half if t > 0.0 else 0.5 - half
            assert abs(vm_cdf_quadrature(p, t) - ref) <= 5e-16, (kappa, t)


def test_point_cdfs_within_three_sigma_take_one_panel(monkeypatch):
    # every point CDF within 3 sigma is one vm_scaled_mass call over
    # [0, |t|] that the narrow Gauss-7 rule or the Kronrod class settles;
    # before the ellipse bound about a third of these bisected that panel
    # and evaluated 45 nodes
    mass = backend.vm_scaled_mass
    evaluations = []

    def recorded(*args):
        result = mass(*args)
        evaluations.append(result[2])
        return result

    monkeypatch.setattr(backend, "vm_scaled_mass", recorded)
    rng = random.Random(20261022)
    lo, hi = math.log(0.5), math.log(1e5)
    for _ in range(1000):
        p = VonMisesParams(0.0, math.exp(rng.uniform(lo, hi)))
        vm_cdf_quadrature(p, rng.uniform(-3.0, 3.0) * p.sigma, 1e-12)
    assert len(evaluations) == 1000
    assert set(evaluations) == {7, 15}


@pytest.mark.parametrize("kappa", [21.0, 30.0, 100.0, 4096.0, 1e5, 1e8])
def test_vm_cdf_sweep_tail_past_reach_is_below_half_an_ulp(kappa):
    # the sweep integrates no segment past its reach r = 20 sigma; that
    # changes no bit while the exact mass on [r, pi] is below 2^-54 of the
    # mass on [0, r], under half an ulp of the running sum at r
    mpmath = pytest.importorskip("mpmath")
    p = VonMisesParams(0.0, kappa)
    r = 20.0 * p.sigma
    assert r < math.pi
    with mpmath.workdps(30):
        k = mpmath.mpf(kappa)
        sigma = mpmath.mpf(p.sigma)
        rr = mpmath.mpf(r)

        def f(u):
            return mpmath.exp(-2 * k * mpmath.sin(u / 2) ** 2)

        inner = mpmath.quad(f, [0, sigma, 3 * sigma, 10 * sigma, rr])
        # the tail falls off from r over a width 1 / (kappa sin r)
        width = 1 / (k * mpmath.sin(rr))
        steps = [rr + width * 10 ** j for j in range(-1, 8)]
        tail = mpmath.quad(f, [rr] + [c for c in steps if c < mpmath.pi] + [mpmath.pi])
        assert 0 < tail < mpmath.mpf(2) ** -54 * inner


@pytest.mark.parametrize(
    "xs, message",
    [
        ([], "must not be empty"),
        ([0.0, 4.0, 0.5], "principal window"),
        ([0.0, math.nan, 0.5], "principal window"),
        ([-math.pi, 0.0], "principal window"),
        ([0.0, math.pi + 0.1], "principal window"),
        ([math.nan], "principal window"),
    ],
)
def test_vm_cdf_sweep_rejects_bad_points(xs, message):
    with pytest.raises(ValueError, match=message):
        vm_cdf_sweep(VonMisesParams(0.0, 5.0), xs)


@pytest.mark.parametrize("kappa", [1e-3, 2.0, 4096.0, 1e5])
def test_sweep_takes_points_in_any_order(kappa, count_calls):
    # the cuts are a sorted set, so shuffled points get the sorted
    # points' values, permuted, from as many segments
    p = VonMisesParams(0.7, kappa)
    rng = random.Random(14)
    grid = BulkSpec.fixed(0.5).grid(p, 201)[1]
    scattered = [p.mu + rng.uniform(-math.pi, math.pi) for _ in range(60)]
    scattered = [x for x in scattered if -math.pi < x - p.mu <= math.pi]
    scattered += scattered[:5] + [p.mu]  # repeats and the mode
    calls = count_calls(backend, "vm_scaled_mass")
    for xs in (grid, scattered):
        ordered = sorted(xs)
        shuffled = list(xs)
        rng.shuffle(shuffled)
        assert shuffled != ordered
        start = len(calls)
        by_x = dict(zip(ordered, vm_cdf_sweep(p, ordered)))
        middle = len(calls)
        assert vm_cdf_sweep(p, shuffled) == [by_x[x] for x in shuffled]
        assert len(calls) - middle == middle - start > 0


def test_table_integrates_each_segment_once(count_calls, capsys):
    # one sweep outwards from the mode: at mu = 0 the grid's offsets pair
    # up, so one segment ends at each distinct |x - mu| > 0 within the 20
    # sigma reach and one at the reach; the grid reaches 32 sigma at
    # kappa = 4096 (62 of its 100 offsets lie within 20 sigma) and 158
    # sigma at kappa = 1e5 (12 of 100)
    calls = count_calls(backend, "vm_scaled_mass")
    for kappa, segments in (("4096", 63), ("1e5", 13)):
        del calls[:]
        assert cli.run(["table", "--mu", "0", "--kappa", kappa, "--grid", "201"]) == 0
        capsys.readouterr()
        assert len(calls) == segments


def test_sweep_cuts_at_each_distinct_offset_once(count_calls):
    # the cuts are 0, 0.5r, r, 2r and 3r: the 20 sigma reach r is also a
    # point's offset, so it adds no zero-length segment, and the two
    # segments past it are not integrated
    p = VonMisesParams(0.0, 1e4)
    r = 20.0 * p.sigma
    calls = count_calls(backend, "vm_scaled_mass")
    vm_cdf_sweep(p, [-2.0 * r, -r, 0.5 * r, r, 3.0 * r])
    assert len(calls) == 2


def test_table_sweep_cuts_at_each_distinct_offset(count_calls, capsys):
    # off mu = 0 rounding splits some of the grid's paired offsets; one
    # segment ends at each distinct |x - mu| > 0 within the 20 sigma reach
    # and one at the reach (the grid reaches 32 sigma)
    calls = count_calls(backend, "vm_scaled_mass")
    assert cli.run(["table", "--mu", "1.3", "--kappa", "4096", "--grid", "201"]) == 0
    capsys.readouterr()
    p = VonMisesParams(1.3, 4096.0)
    _dts, xs = BulkSpec.fixed(0.5).grid(p, 201)
    offsets = {abs(x - p.mu) for x in xs} - {0.0}
    within = {t for t in offsets if t < 20.0 * p.sigma}
    assert len(calls) == len(within) + 1 == 63


@pytest.mark.parametrize(
    "kappas, outcome",
    [
        pytest.param([1024.0, 1280.0, 1536.0], contextlib.nullcontext(), id="1024.0"),
        # the residuals sink below the floating-point floor at these
        # kappas, so the scan fails after its work
        pytest.param(
            [16384.0, 32768.0, 65536.0],
            pytest.raises(ValueError, match="too few residuals"),
            id="16384.0",
        ),
    ],
)
def test_cdf_residual_scan_integrates_each_segment_once(count_calls, kappas, outcome):
    # per kappa, one sweep over the paired offsets of the grid (plus the
    # +20 sigma cut) and the slope point's own quadrature
    calls = count_calls(backend, "vm_scaled_mass")
    with outcome:
        residual_scan(BulkSpec.fixed(0.5), kappas, 201, "cdf")
    assert sorted(set(calls)) == kappas
    assert max(calls.count(k) for k in kappas) <= (201 + 1) // 2 + 2


@pytest.mark.parametrize("kappas", [[1024.0], [1024.0, 2048.0]])
def test_residual_scan_rejects_too_few_kappas_before_any_work(count_calls, kappas):
    calls = count_calls(backend, "vm_scaled_mass")
    with pytest.raises(ValueError, match="at least 3 kappa values, got %d" % len(kappas)):
        residual_scan(BulkSpec.fixed(0.5), kappas, 201, "cdf")
    assert calls == []


@pytest.mark.parametrize(
    "kappas, message",
    [
        # kappa's domain is the kernel's, checked by VonMisesParams
        ([32.0, -1.0, 128.0], r"kappa must be finite, >= 0 and <= 8\.988465674311579e\+307, got -1\.0$"),
        ([32.0, 0.0, 128.0], r"kappa must be > 0, got 0\.0"),
        # the residuals are normalized by kappa^3, which overflows above ~5.6e102
        ([1e100, 1e102, 1e104], r"kappa=1e\+104 is too large .*kappa\^3 overflows"),
        # a repeated kappa, rejected before the slope fit would find it
        ([10.0, 10.0, 1000.0], r"^a slope fit needs distinct kappa values, got 10\.0 more than once$"),
    ],
)
def test_residual_scan_rejects_bad_kappa_before_any_work(count_calls, kappas, message):
    calls = count_calls(backend, "vm_scaled_mass")
    with pytest.raises(ValueError, match=message):
        residual_scan(BulkSpec.fixed(0.5), kappas, 11, "cdf")
    assert calls == []


# ------------------------------------------------------------- slope fit


def test_slope_fit_exact_decays():
    assert abs(slope_fit([(1.0, 1.0), (2.0, 0.125), (4.0, 1.0 / 64.0)]) + 3.0) <= 1e-12
    assert abs(slope_fit([(1.0, 2.0), (10.0, 2.0), (100.0, 2.0)])) <= 1e-12
    assert abs(slope_fit([(1.0, 1.0), (2.0, 0.25), (4.0, 0.0625)]) + 2.0) <= 1e-12


def test_slope_fit_synthetic_cubic_power_law():
    c = 0.37
    pts = [(k, c / k ** 3) for k in [1.0, 2.0, 4.0, 8.0, 16.0]]
    assert abs(slope_fit(pts) + 3.0) <= 1e-9


def test_slope_fit_sums_left_to_right_on_every_version():
    # sum() compensates floats from Python 3.12 on and gives 2.0 here,
    # which moved the last digits of error-scan's slope between versions
    assert oracle._plain_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert oracle._plain_sum(iter([0.5, 0.25])) == 0.75


def test_slope_fit_usage_errors():
    with pytest.raises(ValueError):
        slope_fit([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ValueError):
        slope_fit([(1.0, 1.0), (1.0, 0.5), (2.0, 0.25)])
    with pytest.raises(ValueError):
        slope_fit([(1.0, 1.0), (2.0, 0.0), (3.0, 0.5)])
    with pytest.raises(ValueError):
        slope_fit([(1.0, 1.0), (-2.0, 0.5), (3.0, 0.5)])
    for bad in ((math.inf, 3.0), (math.nan, 3.0), (3.0, math.inf), (3.0, math.nan)):
        with pytest.raises(ValueError, match="finite positive coordinates"):
            slope_fit([(1.0, 1.0), (2.0, 2.0), bad])


# ------------------------------------------------------------ residual scan


def test_residual_scan_validation():
    spec = BulkSpec.fixed(0.5)
    with pytest.raises(ValueError):
        residual_scan(spec, [], 21, "log_ratio")
    with pytest.raises(ValueError):
        residual_scan(spec, [32.0, 64.0, 128.0], 20, "log_ratio")
    with pytest.raises(ValueError):
        residual_scan(spec, [32.0, 64.0, 128.0], 9, "log_ratio")
    with pytest.raises(ValueError):
        residual_scan(spec, [32.0, 64.0, 128.0], 21, "bogus")
    with pytest.raises(ValueError):
        residual_scan(spec, [32.0, -1.0, 128.0], 21, "log_ratio")


def test_residual_scan_rejects_a_grid_size_that_is_not_int():
    # 11.0 used to raise a bare TypeError from range()
    with pytest.raises(ValueError, match=r"grid_size must be odd and >= 11, got 11\.0$"):
        residual_scan(BulkSpec.fixed(0.5), [32.0, 64.0, 128.0], 11.0, "log_ratio")


def test_residual_scan_log_ratio_structure():
    spec = BulkSpec.fixed(0.5)
    kappas = [32.0, 64.0, 128.0, 256.0]
    rep = residual_scan(spec, kappas, 21, "log_ratio")
    assert rep.kappa_values == tuple(kappas)
    assert len(rep.max_residual) == len(kappas)
    assert len(rep.max_normalized_residual) == len(kappas)
    assert rep.grid_size == 21
    assert all(r > 0.0 for r in rep.max_residual)
    assert -3.5 < rep.fitted_slope < -2.5


def test_residual_scan_cdf_max_residual_non_increasing():
    spec = BulkSpec.fixed(0.5)
    rep = residual_scan(spec, [32.0, 64.0, 128.0, 256.0], 21, "cdf")
    mr = rep.max_residual
    assert all(b <= a for a, b in zip(mr, mr[1:]))


def test_residual_scan_shrunken_regime():
    rep = residual_scan(BulkSpec.shrunken(1.0), [64.0, 128.0, 256.0], 11, "ratio")
    assert -3.5 < rep.fitted_slope < -2.5


def test_exact_log_ratio_on_a_bulk_grid_peaks_at_its_edge_or_mu():
    # why the ratio scan checks only the edge: on [0, pi] the exact
    # log-ratio falls, then rises, so a grid's largest value is at its edge
    # or at mu; kappa up to 1e60, where a cancelling form read rounding
    # noise of order 1e7 inside the bulk
    rng = random.Random(20261021)
    for _ in range(300):
        kappa = 10.0 ** rng.uniform(-1.0, 60.0)
        if rng.random() < 0.5:
            spec = BulkSpec.fixed(rng.uniform(0.05, 0.95))
        else:
            spec = BulkSpec.shrunken(rng.uniform(0.05, 3.0))
        params = VonMisesParams(0.0, kappa)
        try:
            _dts, xs = spec.grid(params, rng.randrange(11, 202, 2))
        except ValueError:  # the shrunken edge reaches pi
            continue
        values = [log_ratio_exact(params, x) for x in xs]
        assert max(values) == max(values[0], log_ratio_exact(params, 0.0)), (kappa, spec)


def test_log_ratio_and_ratio_residuals_are_even_on_the_mirror_grid():
    # residual_scan evaluates these two targets on half the grid; at
    # mu = 0 BulkSpec.grid mirrors exactly and each residual list is its
    # own reverse, bit for bit
    rng = random.Random(20261019)
    for _ in range(400):
        kappa = 10.0 ** rng.uniform(-0.3, 6.0)
        if rng.random() < 0.5:
            spec = BulkSpec.fixed(rng.uniform(0.05, 0.95))
        else:
            spec = BulkSpec.shrunken(rng.uniform(0.1, 3.0))
        params = VonMisesParams(0.0, kappa)
        _dts, xs = spec.grid(params, rng.randrange(11, 1002, 2))
        powers = _inverse_powers(kappa)
        targets = ["log_ratio"]
        # math.exp of the exact log-ratio overflows above ~709.78
        if log_ratio_exact(params, xs[0]) < 700.0:
            targets.append("ratio")
        for target in targets:
            res = [r.hex() for r in oracle._scan_residuals(target, params, powers, xs, None)]
            assert res == res[::-1]


@pytest.mark.parametrize("target, edge_checks", [("log_ratio", 0), ("ratio", 1)])
def test_residual_scan_evaluates_half_the_grid(target, edge_checks, count_calls):
    # per kappa: the grid from its edge to mu, then the slope point; the
    # ratio checks each kappa's edge first, before any grid is evaluated,
    # and a check reads the exact log-ratio twice: for its own test, then
    # in the residual as the grid takes it
    # (the core's first argument is its kappa's log-ratio at the mode)
    exact = count_calls(expansions, "_log_ratio_exact_value")
    kappas = [64.0, 128.0, 256.0]
    modes = [expansions._log_ratio_constants(VonMisesParams(0.0, k))[0] for k in kappas]
    residual_scan(BulkSpec.fixed(0.5), kappas, 31, target)
    per_kappa = 31 // 2 + 1 + 1
    edges = [c for c in modes for _ in range(2 * edge_checks)]
    assert exact == edges + [c for c in modes for _ in range(per_kappa)]


def test_cdf_residual_scan_evaluates_one_expansion_per_mirror_pair(count_calls):
    # per kappa: the grid's upper half with mu, whose values the lower half
    # reflects, then the slope point
    values = count_calls(expansions, "_cdf_expansion_value")
    residual_scan(BulkSpec.fixed(0.5), [64.0, 128.0, 256.0], 31, "cdf")
    assert len(values) == 3 * (31 // 2 + 1 + 1)
    assert min(values) == 0.0
