import copy
import math
import pickle
import random
import struct
import types
from fractions import Fraction

import pytest
from references import (
    MPMATH_KAPPAS,
    adaptive_quadrature,
    i0e_series_reference,
    i1e_series_reference,
)

from circbridge import backend, bessel, cli, distributions, expansions, oracle
from circbridge.distributions import (
    SQRT2,
    VonMisesParams,
    WrappedNormalParams,
    _wn_tail_reach,
    _wn_wraps,
    circular_variance_exact,
    circular_variance_expansion,
    matched_sup_gap,
    matched_wn_scale,
    normal_cdf,
    normal_pdf,
    normalize_angle,
    upper_incomplete_moment,
    vm_density,
    wn_density,
    wrap_angle,
)
from circbridge.expansions import BulkSpec, ExpansionValue, StandardizedDeviate
from circbridge.oracle import ScanReport

TWO_PI = 2.0 * math.pi
INV_SQRT_2PI = 1.0 / math.sqrt(TWO_PI)


def rel(a, b):
    return abs(a - b) / abs(b)


def sigma2_reference(kappa):
    """Circular variance from the compensated scaled-series Bessel reference."""
    return 1.0 - i1e_series_reference(kappa) / i0e_series_reference(kappa)


# ---------------------------------------------------------------- parameters


def test_params_normalize_mu():
    p = VonMisesParams(7.0, 1.0)
    assert p.mu == normalize_angle(7.0)
    assert 0.0 <= p.mu < TWO_PI
    assert VonMisesParams(-1e-20, 5.0).mu == 0.0
    assert WrappedNormalParams(-1e-20, 0.5).mu == 0.0
    assert math.copysign(1.0, normalize_angle(-0.0)) == 1.0
    assert math.copysign(1.0, VonMisesParams(-0.0, 5.0).mu) == 1.0
    assert math.copysign(1.0, WrappedNormalParams(-0.0, 1.0).mu) == 1.0
    with pytest.raises(ValueError):
        VonMisesParams(0.0, -0.1)
    with pytest.raises(ValueError):
        WrappedNormalParams(0.0, 0.0)


# ------------------------------------------------------ per-kappa values


@pytest.mark.parametrize("kappa", [299.5, 300.5, 599.5, 600.5])
def test_per_kappa_values_equal_their_functions_bitwise(kappa):
    # beside the former variance (300) and Bessel (600) branch points
    p = VonMisesParams(1.0, kappa)
    assert p.variance == circular_variance_exact(kappa)
    assert p.i0e == bessel.i0e(kappa)
    assert math.log(p.i0e) == bessel.log_i0e(kappa)
    assert p.variance is p.variance


@pytest.mark.parametrize("kappa", [0.0, 1e-3, 2.0, 300.5, 1e5])
def test_sigma_is_the_square_root_of_the_variance(kappa):
    p = VonMisesParams(1.0, kappa)
    assert type(p.variance) is float
    assert type(p.sigma) is float
    assert p.sigma == math.sqrt(p.variance)


def test_per_kappa_values_leave_identity_alone():
    a = VonMisesParams(0.5, 20.0)
    names = ("variance", "sigma", "i0e")
    filled = tuple(getattr(a, name) for name in names)
    # stored once, not recomputed at each read
    assert all(getattr(a, name) is v for name, v in zip(names, filled))
    b = VonMisesParams(0.5, 20.0)
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) == "VonMisesParams(mu=0.5, kappa=20.0)"
    assert (a.mu, a.kappa) == (0.5, 20.0)


def test_zero_kappa_params_valid_until_variance_is_read():
    p = VonMisesParams(0.0, 0.0)
    assert vm_density(p, 1.0) == 1.0 / TWO_PI
    assert p.i0e == 1.0
    assert math.log(p.i0e) == bessel.log_i0e(0.0) == 0.0
    # the uniform law's circular variance
    assert p.variance == 1.0
    assert p.sigma == 1.0


def test_params_are_complete_after_one_kernel_call(count_calls):
    kernel = count_calls(backend, "i0e_sigma2")
    p = VonMisesParams(0.3, 50.0)
    assert kernel == [50.0]
    p.variance, p.sigma, p.i0e
    assert kernel == [50.0]


def test_kappa_beyond_kernel_range_fails_at_construction():
    with pytest.raises(ValueError, match="kappa"):
        VonMisesParams(0.0, 1e308)


def _pickled(protocol):
    return lambda r: pickle.loads(pickle.dumps(r, protocol))


# every way to copy a record: the default pickle protocol, then each one
COPIES = [
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    pytest.param(_pickled(None), id="pickle"),
] + [pytest.param(_pickled(n), id="pickle%d" % n) for n in range(pickle.HIGHEST_PROTOCOL + 1)]


@pytest.mark.parametrize(
    "make", [pytest.param(lambda p: VonMisesParams(p.mu, 80.0), id="replace")] + COPIES
)
def test_copied_params_carry_their_own_kappa_values(make):
    q = make(VonMisesParams(0.4, 20.0))
    assert q.i0e == bessel.i0e(q.kappa)
    assert math.log(q.i0e) == bessel.log_i0e(q.kappa)
    assert q.variance == circular_variance_exact(q.kappa)
    assert q.sigma == math.sqrt(q.variance)
    assert q.sigma is q.sigma
    assert not hasattr(q, "__dict__")


def test_per_kappa_values_are_instance_attributes():
    # each value lives in a slot of the instance: a slot's member
    # descriptor is a data descriptor, whose reads specialize
    for name in ("i0e", "variance", "sigma"):
        assert type(vars(VonMisesParams)[name]) is types.MemberDescriptorType
    a, b = VonMisesParams(0.5, 20.0), VonMisesParams(0.5, 80.0)
    assert (a.i0e, a.variance) != (b.i0e, b.variance)


# ---------------------------------------------------------- value objects


def slot_values(record):
    # every slot of a record, in declaration order, with its value
    return [(name, getattr(record, name)) for name in type(record).__slots__]


RECORDS = [
    (VonMisesParams(0.5, 20.0), "VonMisesParams(mu=0.5, kappa=20.0)"),
    (WrappedNormalParams(0.5, 0.25), "WrappedNormalParams(mu=0.5, v=0.25)"),
    (BulkSpec.fixed(0.5), "BulkSpec(regime='fixed', eta=0.5)"),
    (BulkSpec.shrunken(2.0), "BulkSpec(regime='shrunken', eta=2.0)"),
]


@pytest.mark.parametrize("record, text", RECORDS)
def test_records_repr_their_defining_fields(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in RECORDS])
@pytest.mark.parametrize("name", ["mu", "kappa", "v", "regime", "eta", "sigma", "other"])
def test_records_refuse_assignment_and_deletion(record, name):
    before = slot_values(record)
    with pytest.raises(AttributeError):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert slot_values(record) == before
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", [r for r, _ in RECORDS])
@pytest.mark.parametrize("make", COPIES)
def test_records_survive_copy_and_pickle(record, make):
    q = make(record)
    assert q is not record
    assert type(q) is type(record)
    assert q == record
    assert hash(q) == hash(record)
    assert repr(q) == repr(record)
    assert slot_values(q) == slot_values(record)
    assert not hasattr(q, "__dict__")


def test_records_compare_on_class_and_defining_fields():
    a = VonMisesParams(0.5, 0.25)
    assert a == VonMisesParams(0.5, 0.25)
    assert a != VonMisesParams(0.5, 0.5)
    assert a != WrappedNormalParams(0.5, 0.25)
    assert a != (0.5, 0.25)
    assert BulkSpec.fixed(0.5) == BulkSpec("fixed", 0.5)
    assert BulkSpec.fixed(0.5) != BulkSpec.shrunken(0.5)
    assert hash(WrappedNormalParams(0.5, 0.25)) == hash(WrappedNormalParams(0.5, 0.25))
    assert len({a, VonMisesParams(0.5, 0.25), BulkSpec.fixed(0.5)}) == 2


def test_per_kappa_values_are_set_in_order():
    # every slot is declared in this order and set by construction
    vm = VonMisesParams(0.5, 20.0)
    assert [name for name, _ in slot_values(vm)] == [
        "mu",
        "kappa",
        "i0e",
        "variance",
        "sigma",
    ]
    assert [name for name, _ in slot_values(WrappedNormalParams(0.5, 0.25))] == ["mu", "v"]
    assert [name for name, _ in slot_values(BulkSpec.fixed(0.5))] == ["regime", "eta"]


def test_result_records_are_named_tuples():
    assert StandardizedDeviate._fields == ("delta", "delta_tilde")
    assert ExpansionValue._fields == ("value", "order", "remainder_scale")
    assert ScanReport._fields == (
        "kappa_values",
        "max_residual",
        "max_normalized_residual",
        "fitted_slope",
        "grid_size",
        "regime",
    )
    v = ExpansionValue(0.5, 2, 1e-6)
    assert v == (0.5, 2, 1e-6)
    assert repr(v) == "ExpansionValue(value=0.5, order=2, remainder_scale=1e-06)"
    with pytest.raises(AttributeError):
        v.value = 1.0
    # the functions build the same classes that the public constructors do
    sd = expansions.standardized_deviate(VonMisesParams(0.0, 50.0), 0.1)
    assert type(sd) is StandardizedDeviate
    assert sd == StandardizedDeviate(*sd)
    assert repr(sd) == "StandardizedDeviate(delta=%r, delta_tilde=%r)" % sd
    for got in (
        expansions.log_ratio_expansion(0.5, 50.0, 2),
        expansions.ratio_expansion(0.5, 50.0, 1),
        expansions.cdf_expansion(0.5, 50.0),
    ):
        assert type(got) is ExpansionValue
        assert repr(got) == repr(ExpansionValue(*got))


def test_table_computes_per_kappa_values_once(count_calls, capsys):
    kernel = count_calls(backend, "i0e_sigma2")
    assert cli.run(["table", "--mu", "0.3", "--kappa", "50", "--grid", "11"]) == 0
    capsys.readouterr()
    assert kernel == [50.0]


def test_cdf_residual_scan_computes_per_kappa_values_once(count_calls):
    kernel = count_calls(backend, "i0e_sigma2")
    kappas = [64.0, 128.0, 256.0]
    oracle.residual_scan(BulkSpec.fixed(0.5), kappas, 11, "cdf")
    assert kernel == kappas


def test_matched_sup_gap_computes_per_kappa_values_once(count_calls):
    kernel = count_calls(backend, "i0e_sigma2")
    matched_sup_gap(VonMisesParams(0.0, 10.0), grid_size=101)
    assert kernel == [10.0]


def test_convergence_computes_per_kappa_values_once(count_calls, capsys):
    kernel = count_calls(backend, "i0e_sigma2")
    assert cli.run(["convergence", "--kappas", "4,16", "--grid", "11"]) == 0
    capsys.readouterr()
    assert kernel == [4.0, 16.0]


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "mu, kappa, field",
    [(NAN, 5.0, "mu"), (INF, 5.0, "mu"), (-INF, 5.0, "mu"), (0.0, INF, "kappa"), (0.0, NAN, "kappa")],
)
def test_vm_params_reject_non_finite(mu, kappa, field):
    with pytest.raises(ValueError, match="^%s must be finite" % field):
        VonMisesParams(mu, kappa)


@pytest.mark.parametrize(
    "mu, v, field",
    [(NAN, 1.0, "mu"), (INF, 1.0, "mu"), (-INF, 1.0, "mu"), (0.0, INF, "v"), (0.0, NAN, "v")],
)
def test_wn_params_reject_non_finite(mu, v, field):
    with pytest.raises(ValueError, match="^%s must be finite" % field):
        WrappedNormalParams(mu, v)


@pytest.mark.parametrize("value", [INF, -INF, NAN])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda a: vm_density(VonMisesParams(0.0, 5.0), a), "theta"),
        (lambda a: wn_density(WrappedNormalParams(0.0, 0.5), a), "theta"),
        (lambda a: expansions.log_ratio_exact(VonMisesParams(0.0, 5.0), a), "x"),
        (lambda a: expansions.standardized_deviate(VonMisesParams(0.3, 50.0), a), "x"),
        (lambda a: expansions.reference_normal_density(VonMisesParams(0.3, 50.0), a), "x"),
    ],
    ids=["vm_density", "wn_density", "log_ratio_exact", "standardized_deviate", "reference_normal_density"],
)
def test_point_functions_reject_non_finite_angle(call, name, value):
    with pytest.raises(ValueError, match=r"^%s must be finite, got %r$" % (name, value)):
        call(value)


def test_wrap_angle_range():
    for t in [-9.0, -math.pi, -1.0, 0.0, 1.0, math.pi, 9.0, 100.0]:
        w = wrap_angle(t)
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w) - math.sin(t)) < 1e-12


def _finite_angles():
    # seeded finite doubles: random bit patterns, uniform on [-20, 20],
    # k pi, 2 k pi and k pi / 2 for |k| <= 40 each with their neighbours,
    # and the edges of the float range
    rng = random.Random(29)
    angles = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, -4.4e-16]
    while len(angles) < 1500:
        (t,) = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
        if math.isfinite(t):
            angles.append(t)
    angles += [rng.uniform(-20.0, 20.0) for _ in range(1500)]
    for k in range(-40, 41):
        for t in (k * math.pi, k * TWO_PI, k * (0.5 * math.pi)):
            angles += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    return angles


def test_wrap_angle_is_the_exact_remainder():
    # t mod 2 pi (the float 2 pi) shifted onto (-pi, pi], with no rounding;
    # a zero keeps the sign of t
    two_pi, pi = Fraction(TWO_PI), Fraction(math.pi)
    for t in _finite_angles():
        w = wrap_angle(t)
        r = Fraction(t) % two_pi
        assert Fraction(w) == (r - two_pi if r > pi else r), t
        if w == 0.0:
            assert math.copysign(1.0, w) == math.copysign(1.0, t), t


def test_normalize_angle_is_the_rounded_modulus():
    # t mod 2 pi rounded once, read as 0.0 where it rounds to 2 pi itself;
    # every zero is +0.0
    two_pi = Fraction(TWO_PI)
    for t in _finite_angles():
        n = normalize_angle(t)
        r = float(Fraction(t) % two_pi)
        assert n == (0.0 if r == TWO_PI else r), t
        if n == 0.0:
            assert math.copysign(1.0, n) == 1.0, t


@pytest.mark.parametrize(
    "helper, name", [(wrap_angle, "t"), (normalize_angle, "theta")], ids=["wrap_angle", "normalize_angle"]
)
def test_angle_helpers_at_non_finite(helper, name):
    # NaN in, NaN out; +-inf is refused by name, with no chained libm error
    assert math.isnan(helper(math.nan))
    for t, shown in ((math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(ValueError, match="^%s must be finite, got %s$" % (name, shown)) as info:
            helper(t)
        assert info.value.__cause__ is None and info.value.__suppress_context__


@pytest.mark.parametrize("a", [-5e-324, -1e-20, -1e-16, -4.4e-16, -4.5e-16, -1e-15])
def test_normalize_angle_tiny_negative_stays_below_two_pi(a):
    # a + 2*pi rounds to 2*pi itself for a in (-4.4e-16, 0)
    w = normalize_angle(a)
    assert 0.0 <= w < TWO_PI


# ------------------------------------------------------------- vm density


def test_vm_density_uniform_limit():
    p = VonMisesParams(0.0, 0.0)
    for theta in [0.0, 1.0, 2.0, 5.0]:
        assert vm_density(p, theta) == 1.0 / TWO_PI


def test_vm_density_at_mode_kappa_two():
    p = VonMisesParams(0.0, 2.0)
    got = vm_density(p, 0.0)
    ref = math.exp(2.0) / (TWO_PI * i0e_series_reference(2.0) * math.exp(2.0))
    assert rel(got, ref) <= 1e-13
    assert rel(got, 0.5158854120190136) <= 1e-14


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_vm_density_symmetric_about_mu(t):
    p = VonMisesParams(1.0, 5.0)
    assert rel(vm_density(p, 1.0 + t), vm_density(p, 1.0 - t)) <= 1e-13


@pytest.mark.parametrize("kappa", [0.0, 0.5, 5.0, 50.0, 500.0])
def test_vm_density_normalizes(kappa):
    p = VonMisesParams(0.8, kappa)
    r = adaptive_quadrature(
        lambda th: vm_density(p, th), p.mu - math.pi, p.mu + math.pi, 1e-11
    )
    assert abs(r.value - 1.0) <= 1e-10


def test_vm_density_maximized_at_mu():
    p = VonMisesParams(2.5, 7.0)
    peak = vm_density(p, p.mu)
    for j in range(721):
        theta = j * TWO_PI / 721.0
        assert vm_density(p, theta) <= peak


# ------------------------------------------------------- circular variance


def test_circular_variance_exact_kappa_ten():
    cv = circular_variance_exact(10.0)
    assert type(cv) is float
    assert 0.0 < cv < 1.0
    assert VonMisesParams(0.0, 10.0).sigma == math.sqrt(cv)
    assert rel(cv, sigma2_reference(10.0)) <= 1e-12
    assert rel(cv, 0.05140017404515404) <= 1e-12


def test_circular_variance_decreasing_in_kappa():
    grid = [float(2 ** i) for i in range(11)]  # 1 .. 1024
    vals = [circular_variance_exact(k) for k in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_circular_variance_vs_expansion_gap():
    exact = circular_variance_exact(10.0)
    assert abs(exact - (1.0 / 20.0 + 1.0 / 800.0 + 1.0 / 8000.0)) <= 5e-4


def test_circular_variance_expansion_values():
    assert circular_variance_expansion(2.0) == 0.296875
    got = circular_variance_expansion(1000.0)
    want = 1.0 / 2000.0 + 1.0 / 8e6 + 1.0 / 8e9
    assert math.isclose(got, want, rel_tol=1e-15)


@pytest.mark.parametrize("kappa", [1e-200, 1e-320])
def test_circular_variance_expansion_rejects_overflowing_powers(kappa):
    # 1/kappa^3 overflows below about 1.8e-103; the expansion would be inf
    with pytest.raises(ValueError, match=r"too small for the 1/kappa expansions: 1/kappa\^3 overflows"):
        circular_variance_expansion(kappa)


def test_circular_variance_domain():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            circular_variance_exact(bad)
        with pytest.raises(ValueError):
            circular_variance_expansion(bad)


def test_circular_variance_rejects_kappa_beyond_kernel_range():
    with pytest.raises(ValueError, match="kappa.*1.7e\\+308"):
        circular_variance_exact(1.7e308)


def test_circular_variance_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for kappa in MPMATH_KAPPAS + [5e-324, 1e300, 1e307]:
        # 1 - I1/I0 ~ 1/(2 kappa) cancels about log10(kappa) digits
        with mpmath.workdps(50 + max(0, int(math.log10(kappa)))):
            ref = 1 - mpmath.besseli(1, kappa) / mpmath.besseli(0, kappa)
            worst = max(worst, float(abs(circular_variance_exact(kappa) - ref) / ref))
    assert worst <= 2e-15


# -------------------------------------------------------- wrapped normal


def _rejected(v):
    # whether v is at or above sqrt(2 pi), where WrappedNormalParams must
    # reject it: only the lattice sum is kept, and every matched scale
    # sqrt(2) sigma is at most sqrt(2)
    if v < math.sqrt(TWO_PI):
        return False
    with pytest.raises(ValueError, match=r"^v must be finite, > 0 and < sqrt\(2 pi\), got"):
        WrappedNormalParams(0.0, v)
    return True


@pytest.mark.parametrize("v", [0.1, 1.0, 3.0])
def test_wn_density_normalizes(v):
    if _rejected(v):
        return
    p = WrappedNormalParams(1.234, v)
    r = adaptive_quadrature(lambda th: wn_density(p, th, 1e-12), 0.0, TWO_PI, 1e-10)
    assert abs(r.value - 1.0) <= 1e-9


def test_wn_density_narrow_peak_single_wrap():
    p = WrappedNormalParams(math.pi, 0.1)
    got = wn_density(p, math.pi, 1e-12)
    assert abs(got - 1.0 / (0.1 * math.sqrt(TWO_PI))) <= 1e-12


def test_wn_density_symmetric():
    p = WrappedNormalParams(2.0, 0.7)
    for t in [0.2, 1.0, 2.5]:
        assert rel(wn_density(p, 2.0 + t), wn_density(p, 2.0 - t)) <= 1e-13


@pytest.mark.parametrize("v", [0.3, 1.0, 2.5])
def test_wn_density_truncation_bound(v):
    # doubling the wrap count beyond the chosen bound moves nothing
    tol = 1e-12
    t = wrap_angle(1.0)
    k = _wn_wraps(t, _wn_tail_reach(v, tol))
    assert abs(backend.wn_density_at(t, v, k) - backend.wn_density_at(t, v, 2 * k)) < tol


def _wn_reference(t, v):
    # 40-digit reference: the lattice of normal densities for narrow laws,
    # the Jacobi theta function (the Fourier series) otherwise
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        v = mpmath.mpf(v)
        if v < 0.5:
            wraps = (t + 2 * mpmath.pi * k for k in range(-3, 4))
            lattice = mpmath.fsum(mpmath.exp(-(z * z) / (2 * v * v)) for z in wraps)
            return float(lattice / (v * mpmath.sqrt(2 * mpmath.pi)))
        return float(mpmath.jtheta(3, t / 2, mpmath.exp(-v * v / 2)) / (2 * mpmath.pi))


@pytest.mark.parametrize("v", [1e-300, 1.0, 2.5, 2.5066, 3.0, 100.0, 1e3, 1e5, 1e12])
@pytest.mark.parametrize("t", [0.0, 1.0, math.pi])
def test_wn_density_matches_mpmath(v, t):
    # within tol absolute, and relative where the density exceeds 1
    if _rejected(v):
        return
    tol = 1e-12
    ref = _wn_reference(t, v)
    got = wn_density(WrappedNormalParams(0.0, v), t, tol)
    assert abs(got - ref) <= tol * max(1.0, ref)


def test_wn_density_extreme_scales():
    # a point mass: only the k = 0 wrap survives, and nothing overflows
    narrow = WrappedNormalParams(0.0, 1e-300)
    assert rel(wn_density(narrow, 0.0), 1.0 / (1e-300 * math.sqrt(TWO_PI))) <= 1e-15
    assert wn_density(narrow, 1.0) == 0.0
    # a flat law is rejected: it lies above sqrt(2 pi)
    assert _rejected(1e12)


def test_wn_params_reject_scales_with_infinite_reciprocal():
    # the lattice sum scales by 1/v, which overflows below _WN_MIN_V
    smallest = distributions._WN_MIN_V
    assert 1.0 / smallest < math.inf
    assert 1.0 / math.nextafter(smallest, 0.0) == math.inf
    for v in (math.nextafter(smallest, 0.0), 1e-310, 5e-324):
        with pytest.raises(ValueError, match=r"^v must be >= 5\.56268464626801e-309, where 1/v is finite"):
            WrappedNormalParams(0.0, v)
    # the smallest accepted scale is a point mass whose peak is finite
    p = WrappedNormalParams(0.0, smallest)
    peak = wn_density(p, 0.0)
    assert peak < math.inf
    assert rel(peak, INV_SQRT_2PI * (1.0 / smallest)) <= 1e-15
    assert wn_density(p, 0.3) == 0.0


@pytest.mark.parametrize("v", [2.6, 3.0, 10.0, 1e6])
def test_wn_density_wide_laws_need_few_terms(v):
    # laws from v = sqrt(2 pi) up are rejected; the widest accepted one
    # needs at most 11 lattice terms at tol 1e-12 and 35 at tol 1e-300,
    # and a matched law (v <= sqrt(2)) at most 9 and 21
    assert _rejected(v)
    widest = math.nextafter(math.sqrt(TWO_PI), 0.0)
    WrappedNormalParams(0.0, widest)
    for scale, tol, terms in [
        (widest, 1e-12, 11), (widest, 1e-300, 35), (SQRT2, 1e-12, 9), (SQRT2, 1e-300, 21)
    ]:
        assert max(2 * _wn_wraps(t, _wn_tail_reach(scale, tol)) + 1 for t in (0.0, math.pi)) == terms


def test_wn_density_rejects_bad_tol():
    p = WrappedNormalParams(0.0, 1.0)
    with pytest.raises(ValueError):
        wn_density(p, 0.0, 0.0)


# ---------------------------------------------------------- matched scale


def test_matched_scale_identity():
    for kappa in [1.0, 10.0, 100.0]:
        assert matched_wn_scale(kappa) == SQRT2 * VonMisesParams(0.0, kappa).sigma


def test_matched_scale_vs_reference():
    got = matched_wn_scale(100.0)
    ref = math.sqrt(2.0 * sigma2_reference(100.0))
    assert rel(got, ref) <= 1e-12


def test_matched_scale_large_kappa():
    assert abs(matched_wn_scale(1e4) - 0.01) <= 2e-5


def test_matched_sup_gap_decreasing():
    gaps = [matched_sup_gap(VonMisesParams(0.0, k), grid_size=301) for k in [4.0, 16.0, 64.0, 256.0]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("kappa, evaluations", [(0.5, 501), (256.0, 43)])
def test_matched_sup_gap_stops_where_neither_density_can_beat_the_sup(kappa, evaluations, count_calls):
    # the walk covers the 501 offsets on [0, pi]; at kappa = 0.5 both
    # densities are too flat for any of them to be cut; at kappa = 256 it
    # stops a few sigma out
    lattice = count_calls(backend, "wn_density_at")
    matched_sup_gap(VonMisesParams(0.0, kappa), grid_size=1001)
    assert len(lattice) == evaluations


def test_convergence_default_kappas_evaluate_an_eighth_of_the_grid(count_calls, capsys):
    lattice = count_calls(backend, "wn_density_at")
    assert cli.run(["convergence", "--kappas", "4,16,64,256", "--grid", "1001"]) == 0
    capsys.readouterr()
    assert len(lattice) == 256 + 140 + 77 + 43


@pytest.mark.parametrize("grid_size", [0, -5])
def test_matched_sup_gap_rejects_empty_grid(grid_size):
    with pytest.raises(ValueError, match="grid_size must be >= 1"):
        matched_sup_gap(VonMisesParams(0.0, 4.0), grid_size=grid_size)


@pytest.mark.parametrize("grid_size", [2.5, True])
def test_matched_sup_gap_rejects_grid_sizes_that_are_not_int(grid_size):
    # 2.5 used to raise a bare TypeError from range(), and True to run a
    # one-point grid
    with pytest.raises(ValueError, match=r"grid_size must be >= 1, got %r$" % (grid_size,)):
        matched_sup_gap(VonMisesParams(0.0, 4.0), grid_size)


# ------------------------------------------------------------ linear normal


def test_normal_pdf_values():
    assert normal_pdf(0.0) == 1.0 / math.sqrt(TWO_PI)
    for z in [0.5, 1.0, 3.0]:
        assert normal_pdf(z) == normal_pdf(-z)
    r = adaptive_quadrature(normal_pdf, -10.0, 10.0, 1e-11)
    assert abs(r.value - 1.0) <= 1e-10


def test_normal_cdf_values():
    assert normal_cdf(0.0) == 0.5
    for z in [0.3, 1.7, 4.0]:
        assert abs(normal_cdf(-z) - (1.0 - normal_cdf(z))) <= 1e-14
    ref = adaptive_quadrature(normal_pdf, -10.0, 1.96, 1e-12).value
    assert abs(normal_cdf(1.96) - ref) <= 1e-11
    assert abs(normal_cdf(1.96) - 0.9750021048517795) <= 1e-14


def test_upper_incomplete_moment_at_zero():
    assert upper_incomplete_moment(0, 0.0) == 0.5
    assert upper_incomplete_moment(2, 0.0) == 0.5
    assert upper_incomplete_moment(4, 0.0) == 1.5
    assert upper_incomplete_moment(6, 0.0) == 7.5
    assert upper_incomplete_moment(8, 0.0) == 52.5


def test_upper_incomplete_moment_vs_quadrature():
    ref = adaptive_quadrature(lambda y: y ** 6 * normal_pdf(y), 1.0, 12.0, 1e-12).value
    assert abs(upper_incomplete_moment(6, 1.0) - ref) <= 1e-10
    assert abs(upper_incomplete_moment(6, 1.0) - 7.4612140238738665) <= 1e-13


@pytest.mark.parametrize("j", [0, 2, 4, 6, 8])
@pytest.mark.parametrize("z", [-2.0, 0.0, 1.0, 3.0])
def test_upper_incomplete_moment_closed_forms(j, z):
    def integrand(y):
        return y ** j * normal_pdf(y)

    ref = adaptive_quadrature(integrand, z, z + 42.0, 1e-12).value
    assert abs(upper_incomplete_moment(j, z) - ref) <= 1e-10


@pytest.mark.parametrize("j, moment", [(0, 1.0), (2, 1.0), (4, 3.0), (6, 15.0), (8, 105.0)])
def test_upper_incomplete_moment_limits(j, moment):
    # 0 at +inf and the full moment (j - 1)!! at -inf, also where z^2
    # overflows or phi(z) underflows; no inf * 0 = nan
    for z in (math.inf, 1e200, 40.0):
        assert upper_incomplete_moment(j, z) == 0.0
    for z in (-math.inf, -1e200, -40.0):
        assert upper_incomplete_moment(j, z) == moment
    assert math.isnan(upper_incomplete_moment(j, math.nan))


def test_upper_incomplete_moment_rejects_odd_j():
    for j in (1, 3, 5, 7, 9, -2, 2.0, 0.0, False):
        with pytest.raises(ValueError):
            upper_incomplete_moment(j, 0.0)


def test_upper_incomplete_moment_matches_mpmath():
    # reference: the incomplete-gamma form, independent of the recurrence;
    # with s = 2^(j/2) / (2 sqrt(pi)), M = s Gamma((j+1)/2, z^2/2) for z >= 0
    # and (j-1)!! - s Gamma((j+1)/2, z^2/2) for z < 0
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(29)
    zs = [-8.0, -1.0, 0.0, 1.0, 8.0] + [rng.uniform(-8.0, 8.0) for _ in range(100)]
    with mpmath.workdps(40):
        for j, full in [(0, 1), (2, 1), (4, 3), (6, 15), (8, 105)]:
            s = mpmath.mpf(2) ** (mpmath.mpf(j) / 2) / (2 * mpmath.sqrt(mpmath.pi))
            worst = 0.0
            for z in zs:
                upper = s * mpmath.gammainc(mpmath.mpf(j + 1) / 2, mpmath.mpf(z) ** 2 / 2)
                ref = upper if z >= 0.0 else full - upper
                worst = max(worst, float(abs(upper_incomplete_moment(j, z) - ref) / ref))
            assert worst <= (3e-14 if j == 0 else 5e-15), (j, worst)
