"""Element constructors, chain validation, side jets, conservation laws,
typed failures at the element, chain, pump, grid and temperature entry
points."""

from dataclasses import replace

import numpy as np
import pytest

from tmmcavity.elements import (
    Chain,
    Polarisability,
    PumpSpec,
    Scatterer,
    Segment,
    _side_jets,
    propagation_matrix,
    scatterer_matrix,
)
from tmmcavity.errors import ChainError, NonCoolingError, PassivityError
from tmmcavity.mim import MimConfig, ScanGrid, build_mim, evaluate_chain
from tmmcavity.noise import equilibrium_temperature
from tmmcavity.opalg import _entries, _inverse_entries, moving_scatterer_matrix, vo_mul
from tmmcavity.statics import solve_static

from helpers import compose

LAM = 1.064e-6
K0 = 2 * np.pi / LAM


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
        assert abs(p.reflectivity) ** 2 + abs(p.transmissivity) ** 2 == pytest.approx(1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(PassivityError):
            Polarisability(complex("inf"))


class TestScattererMatrix:
    def test_transparent_is_identity(self):
        np.testing.assert_allclose(scatterer_matrix(Polarisability(0.0)), np.eye(2))

    def test_half_reflector(self):
        # zeta = -1: |r|^2 = zeta^2/(1+zeta^2) = 1/2
        p = Polarisability(-1.0)
        assert abs(p.reflectivity) ** 2 == pytest.approx(0.5)
        assert abs(p.transmissivity) ** 2 == pytest.approx(0.5)

    def test_strong_reflector(self):
        p = Polarisability(-10.0)
        assert abs(p.reflectivity) ** 2 == pytest.approx(100 / 101)

    def test_reflectivity_form_equals_matrix(self):
        p = Polarisability(-2.7)
        r, t = p.reflectivity, p.transmissivity
        m = scatterer_matrix(p)
        expect = (1 / t) * np.array([[t**2 - r**2, r], [-r, 1]])
        np.testing.assert_allclose(m, expect, rtol=1e-14)

    def test_unit_determinant_even_absorptive(self):
        m = scatterer_matrix(Polarisability(-1.0 + 0.4j))
        assert np.linalg.det(m) == pytest.approx(1.0)


class TestPropagationMatrix:
    def test_zero_length_identity(self):
        np.testing.assert_allclose(propagation_matrix(K0, 0.0), np.eye(2))

    def test_half_wave_phase(self):
        d = np.pi / K0
        np.testing.assert_allclose(
            propagation_matrix(K0, d), -np.eye(2), atol=1e-12
        )

    def test_unimodular(self):
        m = propagation_matrix(K0, 0.0123)
        assert np.linalg.det(m) == pytest.approx(1.0)

    def test_negative_length_rejected(self):
        with pytest.raises(ChainError):
            propagation_matrix(K0, -1e-9)

        with pytest.raises(ChainError):
            Segment(-1e-9)


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


class TestPumpSpec:
    def test_photon_flux_normalization(self):
        pump = PumpSpec.one_sided(1.0, LAM)
        assert abs(pump.B0) ** 2 + abs(pump.C0) ** 2 == pytest.approx(
            pump.photon_flux
        )
        # 1 W at 1064 nm is ~5.36e18 photons per second
        assert pump.photon_flux == pytest.approx(5.357e18, rel=1e-3)

    def test_inconsistent_amplitudes_rejected(self):
        with pytest.raises(ChainError):
            PumpSpec(B0=1.0, C0=0.0, power_watts=1.0, wavelength=LAM)


def inverse(m):
    """m^-1 as a 2x2 array, read through `_inverse_entries`."""
    return np.array(_inverse_entries(_entries(m))).reshape(2, 2)


class TestFactorize:
    """The chain split M1 MS^ M2 around the mobile scatterer: `_side_jets`
    gives the two static side jets, `moving_scatterer_matrix` the middle."""

    def test_lone_scatterer(self):
        chain = Chain(elements=(Scatterer.of(-1.0),), mobile_index=0, k0=K0)
        m1, m2 = _side_jets(chain)
        np.testing.assert_allclose(m1.static_at(K0), np.eye(2))
        np.testing.assert_allclose(m2.static_at(K0), np.eye(2))
        mu = inverse(m1.static_at(K0))
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
        m1, m2 = _side_jets(chain)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        mirrored = sx @ np.linalg.inv(m2.static_at(K0)) @ sx
        np.testing.assert_allclose(m1.static_at(K0), mirrored, rtol=1e-10)

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
            m1, m2 = _side_jets(replace(chain, k0=k))
            ms = moving_scatterer_matrix(chain.mobile.pol, k)
            recomposed = vo_mul(m1, vo_mul(ms, m2))
            np.testing.assert_allclose(
                recomposed.static_at(k), compose(elements, k), rtol=1e-10
            )
            fd_deriv = (compose(elements, k + dk) - compose(elements, k - dk)) / (2 * dk)
            np.testing.assert_allclose(
                recomposed.static_deriv_at(k), fd_deriv,
                rtol=1e-6, atol=1e-6 * np.max(np.abs(fd_deriv)),
            )

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
        jet, _ = _side_jets(chain)
        m1, dm1 = jet.static_at(K0), jet.static_deriv_at(K0)
        mu = inverse(m1)
        np.testing.assert_allclose(mu @ m1, np.eye(2), atol=1e-12)
        # d(mu m1)/dk = 0: the adjugate of m1' is the derivative of mu
        dprod = inverse(dm1) @ m1 + mu @ dm1
        deriv_scale = 1.7e-3 * np.max(np.abs(m1))  # segment length x |m1|
        np.testing.assert_allclose(dprod, 0, atol=1e-12 * deriv_scale)
        # entry tuples of (P,) arrays give the entries of each inverse
        stack = np.stack([m1, dm1, np.eye(2)])
        for i, entry in enumerate(_inverse_entries(tuple(stack.reshape(-1, 4).T))):
            np.testing.assert_array_equal(
                entry, [inverse(m).flat[i] for m in stack]
            )

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
        m1, m2 = _side_jets(chain)
        m = (m1 @ moving_scatterer_matrix(chain.mobile.pol, K0) @ m2).static_at(K0)
        assert abs(np.linalg.det(m)) == pytest.approx(1.0, rel=1e-12)


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
        assert flux_out == pytest.approx(flux_in, rel=1e-10)


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
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_typed_error(case):
    # each input once failed with an untyped error, a RuntimeWarning (an
    # error under the suite's filterwarnings), a misleading error type or a
    # NaN result
    error, call = BAD_INPUTS[case]
    with pytest.raises(error):
        call()
