"""ABCD ray and Gaussian-beam analysis of the beam-delivery trains."""

import warnings

import numpy as np
import pytest

from pulseloop.envelope import InvalidSpecError
from pulseloop.optics import (APERTURE, BRAGG_TOLERANCE, DESIGN_INPUT_WAIST,
                              DESIGN_TARGET_WAIST, DESIGN_WAVELENGTH,
                              ABCDElement, GaussianBeam, OpticalTrain,
                              RayState, aperture_check, design_single_lens,
                              design_three_lens, free_space,
                              max_temperature_drift, propagate_beam,
                              propagate_ray, sensitivity, thin_lens,
                              waist_vs_input_waist)


# ----------------------------------------------------------------- elements

def test_element_matrices():
    np.testing.assert_array_equal(free_space(0.25).matrix,
                                  [[1.0, 0.25], [0.0, 1.0]])
    np.testing.assert_array_equal(thin_lens(0.2).matrix,
                                  [[1.0, 0.0], [-5.0, 1.0]])


def test_element_validation():
    with pytest.raises(InvalidSpecError):
        free_space(-0.1)
    with pytest.raises(InvalidSpecError):
        thin_lens(0.0)
    with pytest.raises(InvalidSpecError):
        ABCDElement(kind="prism", parameter=1.0)


def test_all_matrices_are_unimodular():
    for el in (free_space(0.0), free_space(1.3), thin_lens(0.07),
               thin_lens(-0.05)):
        assert np.linalg.det(el.matrix) == pytest.approx(1.0, abs=1e-12)
    train = design_three_lens()
    assert np.linalg.det(train.matrix()) == pytest.approx(1.0, abs=1e-12)


def test_ray_state_warns_beyond_paraxial():
    with pytest.warns(UserWarning):
        RayState(L=0.0, theta=0.2)


def test_markers_must_lie_within_the_train():
    with pytest.raises(InvalidSpecError):
        OpticalTrain(elements=(free_space(0.1),), markers={"aom": 5})


# ------------------------------------------------------------ propagate_ray

def test_empty_train_leaves_ray_unchanged():
    train = OpticalTrain(elements=())
    ray = propagate_ray(train, RayState(L=1e-4, theta=1e-5))
    assert ray.L == 1e-4
    assert ray.theta == 1e-5


def test_single_free_space_ray():
    d = 0.35
    train = OpticalTrain(elements=(free_space(d),))
    ray = propagate_ray(train, RayState(L=0.0, theta=1e-4))
    assert ray.L == pytest.approx(d * 1e-4)
    assert ray.theta == pytest.approx(1e-4)


def test_train_propagation_equals_matrix_product():
    train = design_three_lens()
    v = np.array([2e-4, -3e-5])
    composed = train.matrix() @ v
    ray = propagate_ray(train, RayState(L=v[0], theta=v[1]))
    assert ray.L == pytest.approx(composed[0], abs=1e-15)
    assert ray.theta == pytest.approx(composed[1], abs=1e-15)


def test_unknown_marker_raises():
    train = design_three_lens()
    with pytest.raises(InvalidSpecError):
        propagate_ray(train, RayState(0.0, 0.0), marker="nope")


def test_marker_truncates_the_train():
    train = design_three_lens()
    full = train.matrix()
    at_marker = train.matrix("aom")
    np.testing.assert_allclose(at_marker, full, atol=1e-15)


# ----------------------------------------------------------- propagate_beam

def test_free_space_moves_the_waist_reference():
    beam = GaussianBeam(DESIGN_WAVELENGTH, 1e-4)
    train = OpticalTrain(elements=(free_space(0.5),))
    out = propagate_beam(train, beam)
    assert out.w == pytest.approx(1e-4, rel=1e-12)
    assert out.waist_position == pytest.approx(-0.5, rel=1e-12)


def test_focal_plane_spot_formula():
    # A thin lens one focal length after a waist puts the new waist at
    # the focal plane with w' = lambda f / (pi w_in).
    f = 0.2
    w_in = 1.2e-3
    train = OpticalTrain(elements=(free_space(f), thin_lens(f),
                                   free_space(f)))
    out = propagate_beam(train, GaussianBeam(DESIGN_WAVELENGTH, w_in))
    expected = DESIGN_WAVELENGTH * f / (np.pi * w_in)
    assert out.w == pytest.approx(expected, rel=1e-9)
    assert out.waist_position == pytest.approx(0.0, abs=1e-12)


def test_designed_trains_hit_the_target_spot():
    beam = GaussianBeam(DESIGN_WAVELENGTH, DESIGN_INPUT_WAIST)
    for train in (design_single_lens(), design_three_lens(mode="compact"),
                  design_three_lens(mode="waist-matched")):
        out = propagate_beam(train, beam, "aom")
        assert out.spot == pytest.approx(DESIGN_TARGET_WAIST, rel=0.05)


def test_beam_composition_matches_elementwise():
    train = design_three_lens()
    beam = GaussianBeam(DESIGN_WAVELENGTH, DESIGN_INPUT_WAIST)
    whole = propagate_beam(train, beam)
    stepwise = beam
    for el in train.elements:
        stepwise = propagate_beam(OpticalTrain(elements=(el,)), stepwise)
    assert stepwise.w == pytest.approx(whole.w, rel=1e-12)
    assert stepwise.waist_position == pytest.approx(whole.waist_position,
                                                    abs=1e-12)


# -------------------------------------------------------------- sensitivity

def test_free_space_sensitivity_entries():
    train = OpticalTrain(elements=(free_space(0.4),))
    s = sensitivity(train)
    assert s.dL_dL_in == 1.0
    assert s.dL_dtheta_in == pytest.approx(0.4)
    assert s.dtheta_dL_in == 0.0
    assert s.dtheta_dtheta_in == 1.0


def test_sensitivity_entries_are_matrix_entries():
    train = design_three_lens()
    s = sensitivity(train, "aom")
    m = train.matrix("aom")
    assert (s.dL_dL_in, s.dL_dtheta_in) == (m[0, 0], m[0, 1])
    assert (s.dtheta_dL_in, s.dtheta_dtheta_in) == (m[1, 0], m[1, 1])


def test_sensitivity_matches_finite_differences():
    train = design_three_lens()
    s = sensitivity(train, "aom")
    step = 1e-9
    for attr, d_ray in (("dL_dL_in", RayState(step, 0.0)),
                        ("dL_dtheta_in", RayState(0.0, step))):
        plus = propagate_ray(train, d_ray, "aom")
        minus = propagate_ray(train, RayState(-d_ray.L, -d_ray.theta), "aom")
        fd = (plus.L - minus.L) / (2 * step)
        assert fd == pytest.approx(getattr(s, attr), rel=1e-6)


def test_angle_sensitivity_ratio_is_2p5():
    single = sensitivity(design_single_lens(), "aom")
    three = sensitivity(design_three_lens(mode="compact"), "aom")
    ratio = abs(single.dL_dtheta_in) / abs(three.dL_dtheta_in)
    assert ratio == pytest.approx(2.5, rel=0.20)


# ----------------------------------------------------------- aperture_check

def test_zero_perturbation_full_margins():
    train = design_three_lens()
    report = aperture_check(train, RayState(0.0, 0.0), marker="aom")
    assert report.ok
    assert report.position_margin == pytest.approx(APERTURE / 2)
    assert report.angle_margin == pytest.approx(BRAGG_TOLERANCE)


def test_boundary_is_inclusive():
    # Identity train (no elements): the input ray arrives unchanged, so
    # a perturbation exactly at the limits has zero margin yet passes.
    train = OpticalTrain(elements=())
    report = aperture_check(train, RayState(APERTURE / 2, BRAGG_TOLERANCE))
    assert report.ok
    assert report.position_margin == pytest.approx(0.0, abs=1e-18)
    assert report.angle_margin == pytest.approx(0.0, abs=1e-18)
    beyond = aperture_check(train, RayState(APERTURE / 2 * (1 + 1e-9),
                                            BRAGG_TOLERANCE))
    assert not beyond.ok


@pytest.mark.parametrize("name, value", [
    ("dL_dT", np.nan), ("dL_dT", "2e-6"), ("dtheta_dT", np.inf),
    ("aperture", np.nan), ("aperture", 0.0), ("bragg_tolerance", -1e-3)])
def test_temperature_drift_rejects_bad_settings(name, value):
    # A NaN dL_dT used to return inf, a NaN aperture nan and a zero
    # aperture 0.0.
    kwargs = dict(dL_dT=2e-6, dtheta_dT=10e-6, marker="aom")
    kwargs[name] = value
    with pytest.raises(InvalidSpecError, match=name):
        max_temperature_drift(design_three_lens(), **kwargs)


def test_compact_train_tolerates_more_drift_than_reference():
    # Thermal drift coefficients: compact 2 um/K and 10 urad/K at the
    # input; reference single lens 11 um/K and 23 urad/K.
    compact = max_temperature_drift(design_three_lens(mode="compact"),
                                    dL_dT=2e-6, dtheta_dT=10e-6,
                                    marker="aom")
    reference = max_temperature_drift(design_single_lens(),
                                      dL_dT=11e-6, dtheta_dT=23e-6,
                                      marker="aom")
    assert compact > reference
    # Both trains hold alignment at small drift and lose it at large.
    assert aperture_check(design_three_lens(mode="compact"),
                          RayState(2e-6 * 2.0, 10e-6 * 2.0),
                          marker="aom").ok
    big = compact * 1.5
    assert not aperture_check(design_three_lens(mode="compact"),
                              RayState(2e-6 * big, 10e-6 * big),
                              marker="aom").ok


# ------------------------------------------------------ waist_vs_input_waist

def test_design_point_offset_is_zero():
    train = design_three_lens(mode="waist-matched")
    rows = waist_vs_input_waist(train, DESIGN_WAVELENGTH,
                                [DESIGN_INPUT_WAIST], "aom")
    assert rows["offset"][0] == pytest.approx(0.0, abs=1e-6)
    assert rows["within_rayleigh"][0]


def test_offset_shrinks_toward_the_design_waist():
    train = design_three_lens(mode="waist-matched")
    sweep = np.linspace(300e-6, 1200e-6, 10)
    rows = waist_vs_input_waist(train, DESIGN_WAVELENGTH, sweep, "aom")
    mags = np.abs(rows["offset"])
    assert np.all(np.diff(mags) < 0)


def test_overlap_flag_has_a_threshold():
    train = design_three_lens(mode="waist-matched")
    sweep = np.linspace(300e-6, 1200e-6, 31)
    rows = waist_vs_input_waist(train, DESIGN_WAVELENGTH, sweep, "aom")
    flags = rows["within_rayleigh"]
    assert not flags[0]
    assert flags[-1]
    # Single false-to-true transition across the sweep.
    assert int(np.sum(np.diff(flags.astype(int)) != 0)) == 1


_NOT_FINITE_REALS = [np.nan, np.inf, -np.inf, "1e-4", True]


@pytest.mark.parametrize("value", _NOT_FINITE_REALS)
@pytest.mark.parametrize("field", ["L", "theta"])
def test_ray_names_a_coordinate_that_is_not_a_finite_real(field, value):
    with pytest.raises(InvalidSpecError, match=f"^{field} must be"):
        RayState(**{"L": 0.0, "theta": 0.0, field: value})


@pytest.mark.parametrize("value", _NOT_FINITE_REALS)
@pytest.mark.parametrize("kind", ABCDElement.KINDS)
def test_element_names_a_parameter_that_is_not_a_finite_real(kind, value):
    # A NaN used to give NaN matrices, sensitivities and margins.
    with pytest.raises(InvalidSpecError, match=f"^{kind} parameter must be"):
        ABCDElement(kind, value)


@pytest.mark.parametrize("value", _NOT_FINITE_REALS)
@pytest.mark.parametrize("field", ["wavelength", "w", "waist_position"])
def test_beam_names_a_setting_that_is_not_a_finite_real(field, value):
    with pytest.raises(InvalidSpecError, match=f"^{field} must be"):
        GaussianBeam(**{"wavelength": DESIGN_WAVELENGTH, "w": 1e-4,
                        field: value})


@pytest.mark.parametrize("w", [1e-170, 1e200])
def test_beam_names_a_waist_whose_rayleigh_length_is_not_finite(w):
    # pi w^2 / wavelength underflowed to a zero Rayleigh length, which
    # the sweep then divided by with a RuntimeWarning; an overflowing one
    # gave NaN rows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpecError, match="^w must give a finite"):
            GaussianBeam(DESIGN_WAVELENGTH, w)
        with pytest.raises(InvalidSpecError, match="^w must give a finite"):
            waist_vs_input_waist(design_three_lens(), DESIGN_WAVELENGTH, [w])


@pytest.mark.parametrize("value", _NOT_FINITE_REALS + [0.0])
@pytest.mark.parametrize("field", ["aperture", "bragg_tolerance"])
def test_aperture_check_names_a_limit_that_is_not_a_finite_real(field, value):
    # A NaN limit used to fail every ray without a word.
    with pytest.raises(InvalidSpecError, match=f"^{field} must be"):
        aperture_check(design_three_lens(), RayState(0.0, 0.0),
                       **{field: value})


@pytest.mark.parametrize("wavelength, w_in, name", [
    (np.nan, 1e-4, "wavelength"), (np.inf, 1e-4, "wavelength"),
    (DESIGN_WAVELENGTH, np.nan, "w"), (DESIGN_WAVELENGTH, 0.0, "w")])
def test_sweep_names_a_setting_that_is_not_a_finite_positive_real(
        wavelength, w_in, name):
    # A NaN or infinite value used to give NaN rows and a RuntimeWarning.
    with pytest.raises(InvalidSpecError, match=f"^{name} must be"):
        waist_vs_input_waist(design_three_lens(), wavelength, [w_in])


def test_sweep_rejects_bad_values():
    train = design_three_lens(mode="waist-matched")
    with pytest.raises(InvalidSpecError):
        waist_vs_input_waist(train, DESIGN_WAVELENGTH, [], "aom")
    with pytest.raises(InvalidSpecError):
        waist_vs_input_waist(train, DESIGN_WAVELENGTH, [-1e-4], "aom")


# ------------------------------------------------------------------ designs

def test_single_lens_design_geometry():
    train = design_single_lens()
    f = np.pi * DESIGN_INPUT_WAIST * DESIGN_TARGET_WAIST / DESIGN_WAVELENGTH
    kinds = [el.kind for el in train.elements]
    assert kinds == ["free-space", "thin-lens", "free-space"]
    assert train.elements[1].parameter == pytest.approx(f)
    assert train.markers["aom"] == 3


def test_three_lens_designs_record_the_tunable_spacing():
    compact = design_three_lens(mode="compact")
    matched = design_three_lens(mode="waist-matched")
    assert compact.elements[1].parameter > 0
    assert matched.elements[1].parameter > 0
    assert compact.markers["aom"] == len(compact.elements)
    with pytest.raises(InvalidSpecError):
        design_three_lens(mode="nope")


def test_default_three_lens_designs_keep_their_spacings():
    # Spacings the earlier multi-start search found for the defaults.
    compact = design_three_lens(mode="compact")
    spacings = [e.parameter for e in compact.elements[1::2]]
    np.testing.assert_allclose(
        spacings, [0.11755160819145613, 0.03492077591486515,
                   0.13456736979335968], rtol=1e-12, atol=0)
    matched = design_three_lens(mode="waist-matched")
    spacings = [e.parameter for e in matched.elements[1::2]]
    np.testing.assert_allclose(
        spacings, [0.1822777434824264, 0.13205418292386348, 0.20],
        rtol=1e-12, atol=0)


def test_compact_design_puts_the_waist_upstream_of_the_marker():
    beam = GaussianBeam(DESIGN_WAVELENGTH, DESIGN_INPUT_WAIST)
    out = propagate_beam(design_three_lens(mode="compact"), beam, "aom")
    assert out.waist_position == pytest.approx(-0.0113, abs=1e-4)


@pytest.mark.parametrize("w_in, w_target, unmet", [
    (2e-3, DESIGN_TARGET_WAIST, "spot"),
    (DESIGN_INPUT_WAIST, 120e-6, "spot"),
    (3e-3, 100e-6, "dL/dtheta_in"),
    (DESIGN_INPUT_WAIST, 10e-6, "dL/dtheta_in"),
])
def test_compact_design_outside_the_box_names_the_unmet_target(
        w_in, w_target, unmet):
    with pytest.raises(InvalidSpecError, match=unmet):
        design_three_lens(w_in=w_in, w_target=w_target, mode="compact")
