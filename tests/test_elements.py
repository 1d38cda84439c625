"""Element constructors, chain validation, the kernel's chain sides,
conservation laws,
typed failures at the element, chain, pump, grid and temperature entry
points."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from tmmcavity.elements import (
    LENGTH_LIMIT,
    Chain,
    Polarisability,
    PumpSpec,
    Scatterer,
    Segment,
)
from tmmcavity.errors import ChainError, NonCoolingError, PassivityError, TmmCavityError
from tmmcavity.mim import MimConfig, ScanGrid, build_mim, compare_models, evaluate_chain
from tmmcavity.noise import equilibrium_temperature
from tmmcavity.opalg import _composed, _element_entries, _left_jet, _right_jet
from tmmcavity.statics import solve_static

from helpers import compose, matrix

LAM = 1.064e-6
K0 = 2 * np.pi / LAM


def element_matrix(el, k: float = K0) -> np.ndarray:
    """The 2x2 matrix of one element at k, from the kernel's entries."""
    return matrix(_element_entries(el, k))


class TestPolarisability:
    def test_gain_rejected(self):
        with pytest.raises(PassivityError):
            Polarisability(-1.0 - 0.1j)

    def test_absorber_accepted(self):
        p = Polarisability(-1.0 + 0.1j)
        assert p.absorptive
        assert p.absorbed_fraction > 0

    @pytest.mark.parametrize("zeta", [-0.3, -1.0, -10.0, 2.5])
    def test_lossless_energy_split(self, zeta):
        p = Polarisability(zeta)
        flux = abs(p.reflectivity) ** 2 + abs(p.transmissivity) ** 2
        assert flux == pytest.approx(1.0, rel=1e-6, abs=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(PassivityError):
            Polarisability(complex("inf"))


class TestScattererMatrix:
    def test_transparent_is_identity(self):
        np.testing.assert_allclose(element_matrix(Scatterer.of(0.0)), np.eye(2))

    def test_half_reflector(self):
        # zeta = -1: |r|^2 = zeta^2/(1+zeta^2) = 1/2
        p = Polarisability(-1.0)
        assert abs(p.reflectivity) ** 2 == pytest.approx(0.5, rel=1e-6, abs=0)
        assert abs(p.transmissivity) ** 2 == pytest.approx(0.5, rel=1e-6, abs=0)

    def test_strong_reflector(self):
        p = Polarisability(-10.0)
        assert abs(p.reflectivity) ** 2 == pytest.approx(100 / 101, rel=1e-6, abs=0)

    def test_reflectivity_form_equals_matrix(self):
        p = Polarisability(-2.7)
        r, t = p.reflectivity, p.transmissivity
        m = element_matrix(Scatterer(p))
        expect = (1 / t) * np.array([[t**2 - r**2, r], [-r, 1]])
        np.testing.assert_allclose(m, expect, rtol=1e-14)

    def test_unit_determinant_even_absorptive(self):
        m = element_matrix(Scatterer.of(-1.0 + 0.4j))
        assert np.linalg.det(m) == pytest.approx(1.0, rel=1e-6, abs=0)


class TestPropagationMatrix:
    def test_zero_length_identity(self):
        np.testing.assert_allclose(element_matrix(Segment(0.0)), np.eye(2))

    def test_half_wave_phase(self):
        d = np.pi / K0
        np.testing.assert_allclose(
            element_matrix(Segment(d)), -np.eye(2), atol=1e-12
        )

    def test_unimodular(self):
        m = element_matrix(Segment(0.0123))
        assert np.linalg.det(m) == pytest.approx(1.0, rel=1e-6, abs=0)

    def test_negative_length_rejected(self):
        # the kernel reads segment lengths from Segment, which checks them
        with pytest.raises(ChainError):
            element_matrix(Segment(-1e-9))


class TestChain:
    def test_empty_chain_rejected(self):
        with pytest.raises(ChainError):
            Chain(elements=(), mobile_index=0, k0=K0)

    def test_mobile_must_be_scatterer(self):
        with pytest.raises(ChainError):
            Chain(elements=(Segment(1e-3),), mobile_index=0, k0=K0)

    def test_mobile_index_bounds(self):
        with pytest.raises(ChainError):
            Chain(elements=(Scatterer.of(-1.0),), mobile_index=1, k0=K0)

    def test_segment_past_the_length_limit_rejected(self):
        """A segment is at most `LENGTH_LIMIT` wavelengths (2 pi / k0) long:
        at 1064 nm a 1e7 m one, whose phase k0 L ~ 6e13 rad float64 holds
        only to ~8e-3 rad, raises, and one at the limit is accepted."""
        mirror = Scatterer.of(-1.0)
        with pytest.raises(ChainError, match=r"segment length must be at most 1e\+10 "
                                             r"wavelengths \(10640 m\), got 10000000.0"):
            Chain(elements=(mirror, Segment(1e7)), mobile_index=0, k0=K0)
        Chain(elements=(mirror, Segment(LENGTH_LIMIT * (2 * np.pi / K0))), mobile_index=0, k0=K0)


class TestPumpSpec:
    def test_photon_flux_normalization(self):
        pump = PumpSpec.one_sided(1.0, LAM)
        assert abs(pump.B0) ** 2 + abs(pump.C0) ** 2 == pytest.approx(
            pump.photon_flux, rel=1e-6, abs=0
        )
        # 1 W at 1064 nm is ~5.36e18 photons per second
        assert pump.photon_flux == pytest.approx(5.357e18, rel=1e-3, abs=0)

    def test_inconsistent_amplitudes_rejected(self):
        with pytest.raises(ChainError):
            PumpSpec(B0=1.0, C0=0.0, power_watts=1.0, wavelength=LAM)


def inverse(m):
    """adj(m) of a 2x2 array: m^-1 for unit-determinant m, and, adj being
    linear, the k-derivative of that inverse when m is the derivative."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def chain_sides(chain: Chain) -> tuple:
    """The kernel's (M, M') of the elements left and right of the mobile
    scatterer at `chain.k0`: M1 in full, M2 as its right column."""
    i, k = chain.mobile_index, chain.k0
    lengths = [el if isinstance(el, Scatterer) else np.array([el.length])
               for el in chain.elements]
    return _left_jet(lengths[:i], k, True), _right_jet(lengths[i + 1:], k, True)


def full_right_side(chain: Chain) -> np.ndarray:
    """M2 in full: the left-to-right product of the right-side elements."""
    lengths = [el if isinstance(el, Scatterer) else np.array([el.length])
               for el in chain.elements[chain.mobile_index + 1:]]
    return matrix(_left_jet(lengths, chain.k0, False)[0])


class TestFactorize:
    """The chain split M1 MS^ M2 around the mobile scatterer: `_left_jet`
    and `_right_jet` give the two static sides, `_composed` recomposes
    them around the mobile scatterer."""

    def test_lone_scatterer(self):
        chain = Chain(elements=(Scatterer.of(-1.0),), mobile_index=0, k0=K0)
        m1, m2 = chain_sides(chain)
        np.testing.assert_allclose(matrix(m1[0]), np.eye(2))
        np.testing.assert_allclose(matrix(m2[0]), [[0, 0], [0, 1]])
        assert m1[1] is None and m2[1] is None
        mu = inverse(matrix(m1[0]))
        np.testing.assert_allclose(mu, np.eye(2))

    def test_symmetric_cavity_centre_membrane(self):
        # mirror symmetry of the two half-cavities: spatial inversion swaps
        # the propagation directions, so the left factor is the
        # direction-swapped inverse of the right factor, M1 = sx M2^-1 sx
        half = 0.0335
        chain = Chain(
            elements=(
                Scatterer.of(-30.0),
                Segment(half),
                Scatterer.of(-1.0),
                Segment(half),
                Scatterer.of(-30.0),
            ),
            mobile_index=2,
            k0=K0,
        )
        m1, m2 = chain_sides(chain)
        full = full_right_side(chain)
        np.testing.assert_array_equal(matrix(m2[0])[:, 1], full[:, 1])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        mirrored = sx @ np.linalg.inv(full) @ sx
        np.testing.assert_allclose(matrix(m1[0]), mirrored, rtol=1e-10)

    def test_factorize_recomposes_to_direct_product(self):
        rng = np.random.default_rng(5)
        elements = (
            Scatterer.of(complex(rng.uniform(-5, -0.5))),
            Segment(rng.uniform(1e-4, 5e-3)),
            Scatterer.of(complex(rng.uniform(-5, -0.5))),
            Segment(rng.uniform(1e-4, 5e-3)),
            Scatterer.of(complex(rng.uniform(-5, -0.5))),
        )
        chain = Chain(elements=elements, mobile_index=2, k0=K0)
        dk = 1e-8 * K0
        for k in K0 * (1 + np.linspace(-1e-3, 1e-3, 20)):
            m1, m2 = chain_sides(replace(chain, k0=k))
            recomposed = _composed(*m1, chain.mobile.pol.zeta, k, *m2)
            # the right side is its right column, and so is the product
            np.testing.assert_allclose(
                matrix(recomposed[0])[:, 1], compose(elements, k)[:, 1], rtol=1e-10
            )
            fd_deriv = (compose(elements, k + dk) - compose(elements, k - dk)) / (2 * dk)
            np.testing.assert_allclose(
                matrix(recomposed[1])[:, 1], fd_deriv[:, 1],
                rtol=1e-6, atol=1e-6 * np.max(np.abs(fd_deriv)),
            )
            left = compose(elements[:2], k)
            np.testing.assert_allclose(matrix(m1[0]), left, rtol=1e-12)
            fd_left = (compose(elements[:2], k + dk) - compose(elements[:2], k - dk)) / (2 * dk)
            np.testing.assert_allclose(matrix(m1[1]), fd_left, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(fd_left)))

    def test_m1_inverse_is_inverse(self):
        chain = Chain(
            elements=(
                Scatterer.of(-2.0 + 0.3j),
                Segment(1.7e-3),
                Scatterer.of(-1.0),
            ),
            mobile_index=2,
            k0=K0,
        )
        side, _ = chain_sides(chain)
        m1, dm1 = matrix(side[0]), matrix(side[1])
        mu = inverse(m1)
        np.testing.assert_allclose(mu @ m1, np.eye(2), atol=1e-12)
        # d(mu m1)/dk = 0: the adjugate of m1' is the derivative of mu
        dprod = inverse(dm1) @ m1 + mu @ dm1
        deriv_scale = 1.7e-3 * np.max(np.abs(m1))  # segment length x |m1|
        np.testing.assert_allclose(dprod, 0, atol=1e-12 * deriv_scale)

    def test_lossless_chain_unimodular(self):
        chain = Chain(
            elements=(
                Scatterer.of(-3.0),
                Segment(2.1e-3),
                Scatterer.of(-1.0),
                Segment(3.3e-3),
                Scatterer.of(-3.0),
            ),
            mobile_index=2,
            k0=K0,
        )
        m1, _ = chain_sides(chain)
        m2 = tuple(full_right_side(chain).ravel())
        m = matrix(_composed(*m1, chain.mobile.pol.zeta, K0, m2, None)[0])
        assert abs(np.linalg.det(m)) == pytest.approx(1.0, rel=1e-12, abs=0)


class TestEnergyConservation:
    @pytest.mark.parametrize("seed", range(4))
    def test_lossless_flux_balance(self, seed):
        rng = np.random.default_rng(seed)
        elements = (
            Scatterer.of(complex(rng.uniform(-8, -0.2))),
            Segment(rng.uniform(1e-4, 8e-3)),
            Scatterer.of(complex(rng.uniform(-8, -0.2))),
            Segment(rng.uniform(1e-4, 8e-3)),
            Scatterer.of(complex(rng.uniform(-8, -0.2))),
        )
        chain = Chain(elements=elements, mobile_index=2, k0=K0)
        pump = PumpSpec.one_sided(1.0, LAM)
        fields = solve_static(chain, pump)
        flux_in = abs(pump.B0) ** 2 + abs(pump.C0) ** 2
        flux_out = abs(fields.out_left) ** 2 + abs(fields.out_right) ** 2
        assert flux_out == pytest.approx(flux_in, rel=1e-10, abs=0)


BAD_INPUTS = {
    "negative power": (
        ChainError, lambda: PumpSpec.one_sided(-1.0, LAM)),
    "negative wavelength": (
        ChainError, lambda: PumpSpec.one_sided(1.0, -1e-6)),
    "zero wavelength": (
        ChainError, lambda: PumpSpec.one_sided(1.0, 0.0)),
    "huge wavelength": (
        ChainError, lambda: PumpSpec.one_sided(1.0, 1e300)),
    "tiny wavelength": (
        ChainError, lambda: PumpSpec.one_sided(1.0, 1e-300)),
    "huge mim wavelength": (
        ChainError, lambda: MimConfig(wavelength=1e300)),
    "huge membrane zeta": (
        ChainError, lambda: evaluate_chain(build_mim(MimConfig(membrane_zeta=-1.4e154)),
                                           PumpSpec.one_sided(1.0, LAM))),
    "huge mobile zeta": (
        ChainError, lambda: solve_static(Chain((Scatterer.of(-1e300),), 0, K0),
                                         PumpSpec.one_sided(1.0, LAM))),
    "huge cavity length": (
        ChainError, lambda: compare_models(MimConfig(cavity_length=1e100),
                                           ScanGrid(0, 1e-7, 2, 0, 1e-7, 2))),
    "sub-wavelength cavity length": (
        ChainError, lambda: compare_models(MimConfig(cavity_length=1e-300),
                                           ScanGrid(0, 1e-7, 2, 0, 1e-7, 2))),
    "infinite power": (
        ChainError, lambda: evaluate_chain(build_mim(MimConfig()),
                                           PumpSpec.one_sided(float("inf"), LAM))),
    "nan wavelength": (
        ChainError, lambda: PumpSpec(0.0, 0.0, 1.0, float("nan"))),
    "nan amplitude": (
        ChainError, lambda: evaluate_chain(build_mim(MimConfig()),
                                           PumpSpec(float("nan"), 0.0, 1.0, LAM))),
    "non-integer grid count": (
        ChainError, lambda: ScanGrid(0, 1e-7, 2.5, 0, 1e-7, 3)),
    "non-number grid range": (
        ChainError, lambda: ScanGrid(0, "1e-7", 2, 0, 1e-7, 3)),
    "nan friction": (
        NonCoolingError, lambda: equilibrium_temperature(1.0, float("nan"))),
    "non-integer mobile index": (
        ChainError, lambda: Chain((Scatterer.of(-1.0),), 0.5, K0)),
    "complex wavenumber": (
        ChainError, lambda: Chain((Scatterer.of(-1.0),), 0, k0=1j)),
    "string wavenumber": (
        ChainError, lambda: Chain((Scatterer.of(-1.0),), 0, k0="1")),
    "non-sequence elements": (
        ChainError, lambda: Chain(5, 0, K0)),
    "string segment length": (
        ChainError, lambda: Segment("1e-3")),
    "string polarisability": (
        PassivityError, lambda: Scatterer.of("abc")),
    "missing polarisability": (
        PassivityError, lambda: Polarisability(None)),
    "non-numeric string pump amplitude": (
        ChainError, lambda: PumpSpec("x", 0.0, 1.0, LAM)),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_typed_error(case):
    # each input once failed with an untyped error, a RuntimeWarning (an
    # error under the suite's filterwarnings), a misleading error type or a
    # NaN result
    error, call = BAD_INPUTS[case]
    with pytest.raises(error):
        call()


def test_scatterer_without_polarisability_names_the_factory():
    with pytest.raises(ChainError, match=r"Scatterer\.of\(zeta\)"):
        Scatterer(-1 + 0j)


# Malformed values swept over every argument of every record constructor
# and pump factory: each either raises a TmmCavityError or, where listed in
# SWEEP_ACCEPTED, is a legal input.  "complex" stands where a real is
# expected, "negative" where a non-negative number is.
SWEEP_VALUES = {
    "str": "1",
    "None": None,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "complex": 1 + 1j,
    "negative": -1,
}

SWEEP_TARGETS = {
    "Polarisability": (Polarisability, {"zeta": -1.0}),
    "Scatterer": (Scatterer, {"pol": Polarisability(-1.0)}),
    "Scatterer.of": (Scatterer.of, {"zeta": -1.0}),
    "Segment": (Segment, {"length": 1e-3}),
    "Chain": (Chain, {"elements": (Scatterer.of(-1.0),), "mobile_index": 0, "k0": K0}),
    "PumpSpec": (PumpSpec, {"B0": PumpSpec.one_sided(1.0, LAM).B0, "C0": 0.0,
                            "power_watts": 1.0, "wavelength": LAM}),
    "PumpSpec.one_sided": (PumpSpec.one_sided,
                           {"power_watts": 1.0, "wavelength": LAM, "side": "left"}),
    "MimConfig": (MimConfig, asdict(MimConfig())),
    "ScanGrid": (ScanGrid, {"x_start": 0.0, "x_stop": 1e-7, "x_count": 2,
                            "dlc_start": 0.0, "dlc_stop": 1e-7, "dlc_count": 3}),
}

SWEEP_ACCEPTED = {
    ("Polarisability", "zeta"): {"complex", "negative"},
    ("Scatterer.of", "zeta"): {"complex", "negative"},
    # C0 = -1 or 1+1j misses |B0|^2 + |C0|^2 = P/(hbar omega0) by ~1 photon/s
    # of ~5e18, inside the invariant's relative tolerance of 1e-9
    ("PumpSpec", "C0"): {"complex", "negative"},
    ("MimConfig", "membrane_zeta"): {"negative"},
    ("MimConfig", "mirror_zeta"): {"negative"},
    ("ScanGrid", "x_start"): {"negative"},
    ("ScanGrid", "dlc_start"): {"negative"},
}


@pytest.mark.parametrize("target", sorted(SWEEP_TARGETS))
def test_malformed_values_raise_only_typed_errors(target):
    build, good = SWEEP_TARGETS[target]
    build(**good)
    wrong = []
    for arg in good:
        for label, value in SWEEP_VALUES.items():
            try:
                build(**{**good, arg: value})
            except TmmCavityError:
                outcome = "rejected"
            except Exception as exc:  # an untyped escape
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                outcome = "accepted"
            expect = "accepted" if label in SWEEP_ACCEPTED.get((target, arg), ()) else "rejected"
            if outcome != expect:
                wrong.append(f"{arg}={value!r} {outcome}, expected {expect}")
    assert wrong == []


@pytest.mark.parametrize("zeta", [np.float64(-1.5), np.int64(-2), np.complex128(-1 + 0.5j),
                                  -1.5, -2, complex(-1, 0.5)])
def test_polarisability_stores_python_complex(zeta):
    # an exact complex skips the numbers.Complex check; every other number
    # is converted, numpy scalars included
    pol = Scatterer.of(zeta).pol
    assert type(pol.zeta) is complex
    assert pol.zeta == complex(zeta)


@pytest.mark.parametrize("length", [np.float64(1e-3), np.int64(2), 1e-3, 2, 0.0, -0.0])
def test_segment_accepts_real_numbers(length):
    # an exact float skips the numbers.Real check; the length is kept as given
    assert Segment(length).length is length
