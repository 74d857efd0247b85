import copy
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thz_ris_planner.aperture import ApertureSpec, EfficiencyLedger
from thz_ris_planner.core import SPEED_OF_LIGHT, BistaticGeometry, Direction, Frequency, _finite, _integer, _wavenumber
from thz_ris_planner.link_budget import LinkReport, LinkScenario, ReceiverSpec
from thz_ris_planner.power import TechnologyProfile
from thz_ris_planner.radiation import QuantizationReport, SpherePattern, SquintReport, UVPattern
from thz_ris_planner.surface import PhaseProfile, TaperSpec


def test_wavelength_anchors():
    assert Frequency.from_ghz(140).wavelength_m == pytest.approx(2.1414e-3, abs=0.0001e-3)
    assert Frequency(299.792458e6).wavelength_m == pytest.approx(1.0, rel=1e-12)
    assert Frequency.from_ghz(300).wavelength_m == pytest.approx(0.99931e-3, abs=0.00001e-3)


def test_wavelength_strictly_decreasing():
    rng = np.random.default_rng(11)
    freqs = np.sort(rng.uniform(1e9, 1e13, 100))
    lams = [Frequency(f).wavelength_m for f in freqs]
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_frequency_validation():
    with pytest.raises(ValueError):
        Frequency(0.0)
    with pytest.raises(ValueError):
        Frequency(-1e9)
    with pytest.raises(ValueError):
        Frequency(math.inf)


def test_a_frequency_whose_wavelength_overflows_is_refused():
    # below about 1.67e-300 Hz, c / f is past the float range: both were accepted with an infinite wavelength
    for hertz in (1e-320, 1e-300):
        with pytest.raises(ValueError) as refusal:
            Frequency(hertz)
        assert str(refusal.value) == f"frequency {hertz:.3g} Hz is so low that its wavelength overflows"
    with pytest.raises(ValueError, match="^frequency 1e-311 Hz is so low that its wavelength overflows$"):
        Frequency.from_ghz(1e-320)
    lowest = SPEED_OF_LIGHT / sys.float_info.max  # within a few ulps of the smallest accepted frequency
    while SPEED_OF_LIGHT / lowest == math.inf:
        lowest = math.nextafter(lowest, math.inf)
    while SPEED_OF_LIGHT / math.nextafter(lowest, 0.0) < math.inf:
        lowest = math.nextafter(lowest, 0.0)
    assert Frequency(lowest).wavelength_m < math.inf
    assert f"{lowest:.3g}" == "1.67e-300"
    with pytest.raises(ValueError, match="so low that its wavelength overflows"):
        Frequency(math.nextafter(lowest, 0.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exponent=st.integers(-995, 1023), mantissa=st.floats(1.0, 2.0, exclude_max=True))
@example(exponent=1023, mantissa=math.nextafter(2.0, 0.0))  # the largest float
def test_wavenumber_is_two_pi_over_the_wavelength_property(exponent, mantissa):
    # log-uniform over every frequency Frequency accepts, from 1.67e-300 Hz: 2 pi f / c overflowed above 2.86e307 Hz
    f = Frequency(max(math.ldexp(mantissa, exponent), 1.67e-300))
    k = _wavenumber(f.hertz)
    assert 0.0 < k < math.inf and k == 2.0 * math.pi / f.wavelength_m
    assert np.array_equal(_wavenumber(np.array([f.hertz, f.hertz])), [k, k])


def test_direction_phi_wraps():
    d = Direction(0.3, 2.0 * math.pi + 0.25)
    assert d.phi == pytest.approx(0.25, abs=1e-12)
    assert 0.0 <= Direction(0.1, -0.1).phi < 2.0 * math.pi


def test_direction_theta_range():
    with pytest.raises(ValueError):
        Direction(-0.01)
    with pytest.raises(ValueError):
        Direction(math.pi / 2 + 0.01)


def test_direction_from_degrees():
    d = Direction.from_degrees(45.0, 90.0)
    u, v = d.transverse()
    assert u == pytest.approx(0.0, abs=1e-12)
    assert v == pytest.approx(math.sin(math.radians(45)), rel=1e-12)


def test_bistatic_geometry_validation():
    inc, out = Direction(0.0), Direction(0.5)
    with pytest.raises(ValueError):
        BistaticGeometry(0.0, 50.0, inc, out)
    with pytest.raises(ValueError):
        BistaticGeometry(50.0, -1.0, inc, out)


F140 = Frequency.from_ghz(140)
NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE, ids=("nan", "inf", "-inf"))
@pytest.mark.parametrize(
    "build",
    [
        lambda x: ApertureSpec(x, F140),
        lambda x: ApertureSpec(0.08, F140, cell_pitch_m=x),
        lambda x: TaperSpec(x),
        lambda x: BistaticGeometry(x, 50.0, Direction(0.0), Direction(0.5)),
        lambda x: BistaticGeometry(50.0, x, Direction(0.0), Direction(0.5)),
        lambda x: ReceiverSpec(bandwidth_hz=x, noise_figure_db=7.0),
        lambda x: ReceiverSpec(bandwidth_hz=2e9, noise_figure_db=x),
        lambda x: ReceiverSpec(bandwidth_hz=2e9, noise_figure_db=7.0, implementation_loss_db=x),
        lambda x: TechnologyProfile("lab", x),
        lambda x: EfficiencyLedger(insertion_loss_db=x),
        lambda x: Direction(0.3, x),
    ],
    ids=[
        "aperture-side", "aperture-pitch", "taper-edge", "geometry-d1", "geometry-d2",
        "receiver-bandwidth", "receiver-nf", "receiver-impl-loss", "tech-cell-power",
        "ledger-insertion-loss", "direction-phi",
    ],
)
def test_validators_reject_non_finite(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


@pytest.mark.parametrize(
    "build, text",
    [
        (Frequency, "frequency must be positive and finite, got "),
        (Direction, "theta must be in [0, pi/2], got "),
        # the integer rule shares the wording, under {!r} too
        (lambda n: _integer(n, "count must be in [0, 10), got {!r}", lambda n: 0 <= n < 10),
         "count must be in [0, 10), got "),
    ],
)
@pytest.mark.parametrize(
    "n, shown",
    [
        (10**5000, "an int of 16610 bits"),
        (10**400, "an int of 1329 bits"),
        (-(10**400), "a negative int of 1329 bits"),
        # negative, as a frequency or a count past 2^64 may be valid
        (-(4**511), "a negative int of 1023 bits"),
        (-(2**64), "a negative int of 65 bits"),
        (1 - 2**64, "-18446744073709551615"),
    ],
    ids=["10**5000", "10**400", "-10**400", "-4**511", "-2**64", "1-2**64"],  # pytest cannot name a 5001-digit int
)
def test_an_int_of_more_than_64_bits_is_named_by_its_size(build, text, n, shown):
    # 10**5000 has more digits than Python prints (4300), and 4**511's 308 made a refusal of 360 characters
    with pytest.raises(ValueError) as raised:
        build(n)
    assert str(raised.value) == text + shown


def test_a_type_error_in_a_function_value_is_raised_not_refused():
    # a function value is made of checked values, so a TypeError in it is a fault of the program, not bad input
    with pytest.raises(TypeError):
        _finite(lambda: 1.0 + "1", "never shown, got {}")


def test_speed_of_light_is_exact():
    assert SPEED_OF_LIGHT == 299792458.0


GEOMETRY = BistaticGeometry(50.0, 60.0, Direction(0.0), Direction(0.5, 1.0))
AXIS = np.linspace(-1.0, 1.0, 3)
# one sample of every value type
VALUE_SAMPLES = [
    Frequency(140e9),
    Direction(0.3, -1.0),
    GEOMETRY,
    ApertureSpec(0.11, F140, aperture_efficiency=0.25),
    EfficiencyLedger(0.6, 2.0),
    LinkScenario(GEOMETRY, F140, 20.0, 46.0, 10.0),
    ReceiverSpec(2e9, 7.0, 16, 1e-5, 1.5),
    LinkReport(-59.8, -60.0, -154.3),
    TechnologyProfile("lab", 1e-3),
    TaperSpec(-10.0),
    PhaseProfile(np.array([[1.0, 1j], [-1.0, -0.5j]]), F140, 1e-3),
    UVPattern(AXIS, AXIS, np.full((3, 3), np.nan + 0j)),
    SpherePattern(AXIS, AXIS, np.zeros((3, 3)), 2.5),
    SquintReport(140e9, Direction(0.5), AXIS, AXIS, AXIS, 0.01, 4e9, True),
    QuantizationReport([1, 2], [20.0, 23.0], 24.0),
]
# records whose fields hold arrays: they compare and hash by identity
IDENTITY = (PhaseProfile, UVPattern, SpherePattern, SquintReport)
# a record whose fields hold lists: it compares field-wise but cannot be hashed
UNHASHABLE = (QuantizationReport,)


def test_value_samples_cover_every_value_type():
    from thz_ris_planner.core import ArrayRecord, Value

    assert set(IDENTITY) == set(ArrayRecord.__subclasses__())
    assert {type(v) for v in VALUE_SAMPLES} == set(Value.__subclasses__()) - {ArrayRecord} | set(IDENTITY)


def _assert_same_fields(a, b, names):
    assert type(a) is type(b)
    for name in names:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("value", VALUE_SAMPLES, ids=lambda v: type(v).__name__)
def test_value_type_contract(value):
    cls = type(value)
    names = list(cls.__slots__)
    fields = {name: getattr(value, name) for name in names}
    twin = cls(**fields)

    if cls in IDENTITY:
        assert value == value and twin != value and hash(value) != hash(twin)
    else:
        assert twin == value and not twin != value
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(twin) == hash(value)
    assert value.__eq__(object()) is NotImplemented
    assert repr(value) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"

    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        _assert_same_fields(clone, value, names)
        if cls is PhaseProfile:
            assert not clone.coefficients.flags.writeable
        if cls not in IDENTITY + UNHASHABLE:
            assert clone == value

    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is fields[name]


def test_records_take_fields_by_position_or_name():
    by_position = LinkReport(-59.8, -60.0, -154.3)
    assert LinkReport(-59.8, sensitivity_dbm=-60.0, spreading_term_db=-154.3) == by_position
    assert LinkReport(spreading_term_db=-154.3, rx_power_dbm=-59.8, sensitivity_dbm=-60.0) == by_position
    assert by_position.margin_db == pytest.approx(0.2)


@pytest.mark.parametrize(
    "args,kwargs",
    [
        ((-59.8, -60.0), {}),  # missing, by position
        ((-59.8,), {"sensitivity_dbm": -60.0}),  # missing, mixed
        ((-59.8, -60.0, -154.3, 1.0), {}),  # one positional too many
        ((-59.8, -60.0, -154.3), {"margin_db": 0.2}),  # unknown name
        ((-59.8, -60.0), {"rx_power_dbm": -59.8, "spreading_term_db": -154.3}),  # doubled
    ],
    ids=["missing", "missing-mixed", "surplus", "unknown", "doubled"],
)
def test_record_fields_each_given_once(args, kwargs):
    fields = r"\(rx_power_dbm, sensitivity_dbm, spreading_term_db\)"
    with pytest.raises(TypeError, match=rf"LinkReport takes each of {fields} once"):
        LinkReport(*args, **kwargs)


def test_array_records_compare_by_identity():
    def report():
        return SquintReport(140e9, Direction(0.5), AXIS.copy(), AXIS.copy(), AXIS.copy(), 0.01, 4e9, False)

    a, b = report(), report()
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2
