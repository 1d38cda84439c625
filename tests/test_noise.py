"""Commutator bookkeeping, loss modes, diffusion, equilibrium temperature."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from scipy.constants import c as C_LIGHT, hbar as HBAR, k as K_BOLTZMANN

from tmmcavity.dynamics import force_with_velocity, solve_dynamic
from tmmcavity.elements import Chain, Polarisability, PumpSpec, Scatterer, Segment
from tmmcavity.errors import NonCoolingError, SingularSolveError
from tmmcavity.noise import (
    OperatorFields,
    attach_loss_modes,
    diffusion,
    equilibrium_temperature,
    loss_coupling,
    operator_fields,
)
from tmmcavity.statics import solve_static

from helpers import printed_sum_diffusion, random_chains

LAM = 1.064e-6
K0 = 2 * np.pi / LAM
PUMP = PumpSpec.one_sided(1.0, LAM)


def lossless_chain(seed=0):
    rng = np.random.default_rng(seed)
    return Chain(
        elements=(
            Scatterer.of(complex(rng.uniform(-6, -0.3))),
            Segment(rng.uniform(1e-4, 5e-3)),
            Scatterer.of(complex(rng.uniform(-6, -0.3))),
            Segment(rng.uniform(1e-4, 5e-3)),
            Scatterer.of(complex(rng.uniform(-6, -0.3))),
        ),
        mobile_index=2,
        k0=K0,
    )


def two_absorber_chain():
    return Chain(
        elements=(
            Scatterer.of(-1.0 + 0.2j),
            Segment(1.3e-3),
            Scatterer.of(-2.0),
            Segment(0.9e-3),
            Scatterer.of(-0.5 + 0.35j),
        ),
        mobile_index=2,
        k0=K0,
    )


class TestOperatorFields:
    def test_empty_chain_unit_commutator(self):
        chain = Chain(elements=(Scatterer.of(0.0),), mobile_index=0, k0=K0)
        ops = operator_fields(chain)
        assert ops.basis.labels == ("pump_left", "pump_right")
        # the field travelling rightward at the scatterer is the left pump
        assert OperatorFields.commutator(ops.b_vec, ops.b_vec) == pytest.approx(1.0, abs=0)
        np.testing.assert_allclose(ops.b_vec, [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_lossless_output_unitarity(self, seed):
        chain = lossless_chain(seed)
        ops = operator_fields(chain)
        comm = OperatorFields.commutator
        assert comm(ops.out_left_vec, ops.out_left_vec) == pytest.approx(1.0, rel=1e-10, abs=0)
        assert comm(ops.out_right_vec, ops.out_right_vec) == pytest.approx(1.0, rel=1e-10, abs=0)
        assert abs(comm(ops.out_left_vec, ops.out_right_vec)) < 1e-10

    def test_basis_gram_identity(self):
        # basis modes stay orthonormal by construction: response columns of
        # distinct inputs are built from independent unit inputs
        chain = attach_loss_modes(
            Chain(
                elements=(
                    Scatterer.of(-1.0 + 0.2j),
                    Segment(2e-3),
                    Scatterer.of(-2.0),
                ),
                mobile_index=2,
                k0=K0,
            )
        )
        ops = operator_fields(chain)
        assert ops.basis.size == 3
        assert ops.basis.labels[2] == "loss_0"

    def test_absorber_defect_without_loss_modes(self):
        # the loss-mode column is always in the basis; the two pump columns
        # alone break the out-commutators
        chain = Chain(
            elements=(Scatterer.of(-1.0 + 0.1j),), mobile_index=0, k0=K0
        )
        ops = operator_fields(chain)
        assert ops.basis.labels == ("pump_left", "pump_right", "loss_0")
        comm = OperatorFields.commutator
        total = (comm(ops.out_left_vec[:2], ops.out_left_vec[:2])
                 + comm(ops.out_right_vec[:2], ops.out_right_vec[:2])).real
        assert total < 2.0 - 1e-3

    def test_absorber_restored_with_loss_modes(self):
        chain = attach_loss_modes(
            Chain(elements=(Scatterer.of(-1.0 + 0.1j),), mobile_index=0, k0=K0)
        )
        ops = operator_fields(chain)
        comm = OperatorFields.commutator
        assert comm(ops.out_left_vec, ops.out_left_vec) == pytest.approx(1.0, rel=1e-10, abs=0)
        assert comm(ops.out_right_vec, ops.out_right_vec) == pytest.approx(1.0, rel=1e-10, abs=0)
        assert abs(comm(ops.out_left_vec, ops.out_right_vec)) < 1e-10

    def test_absorbed_fraction_equals_squared_coupling(self):
        pol = Polarisability(-1.0 + 0.1j)
        assert pol.absorbed_fraction > 0
        assert 2 * loss_coupling(pol) ** 2 == pytest.approx(
            pol.absorbed_fraction * 2, rel=1e-12, abs=0
        )
        # per the rank-one defect: kappa^2 = (1 - |r+t|^2)/2 = absorbed/2 x 2
        assert loss_coupling(pol) ** 2 == pytest.approx(
            (1 - abs(pol.reflectivity + pol.transmissivity) ** 2) / 2, abs=0
        )

    def test_two_absorbers_two_loss_modes_identity_outputs(self):
        chain = attach_loss_modes(two_absorber_chain())
        ops = operator_fields(chain)
        assert ops.basis.size == 4
        comm = OperatorFields.commutator
        outs = np.array([ops.out_left_vec, ops.out_right_vec])
        gram = outs @ outs.conj().T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(random_chains())
    def test_output_unitarity_with_loss_modes(self, case):
        """Random 3-41-element chains, |zeta| <= 10, absorbers: over the full
        basis (two pumps and a loss mode per absorber) the outgoing ports
        keep bosonic commutators, [out_i, out_j^dag] = delta_ij.  The worst
        of 3000 draws is off by 4.6e-14."""
        chain, _pump = case
        ops = operator_fields(chain)
        outs = np.array([ops.out_left_vec, ops.out_right_vec])
        np.testing.assert_allclose(outs @ outs.conj().T, np.eye(2), rtol=0, atol=1e-12)

    def test_attach_on_lossless_chain_is_identity(self):
        chain = lossless_chain(1)
        assert attach_loss_modes(chain) is chain

    def test_absorptive_chain_full_basis_without_attach(self):
        # the full basis needs no preparation of the chain: unitary outputs,
        # and D at the value the loss modes give (2.19e-36 N^2 s; the two
        # pump columns alone give 1.41e-36, 36% low)
        chain = two_absorber_chain()
        assert attach_loss_modes(chain) is chain  # it only checks passivity
        ops = operator_fields(chain)
        assert ops.basis.labels == ("pump_left", "pump_right", "loss_0", "loss_4")
        outs = np.array([ops.out_left_vec, ops.out_right_vec])
        np.testing.assert_allclose(outs @ outs.conj().T, np.eye(2), atol=1e-10)
        fields = solve_static(chain, PUMP)
        d_coeff = diffusion(fields, ops, chain.mobile.pol, K0)
        assert d_coeff == pytest.approx(2.1913650600350888e-36, rel=1e-12, abs=0)
        pump_only = OperatorFields(ops.basis, *(
            v[:2] for v in (ops.a_vec, ops.b_vec, ops.c_vec, ops.d_vec,
                            ops.out_left_vec, ops.out_right_vec)))
        assert diffusion(fields, pump_only, chain.mobile.pol, K0) == pytest.approx(
            1.4068394025183412e-36, rel=1e-12, abs=0)


class TestDiffusion:
    def test_transparent_no_diffusion(self):
        chain = Chain(elements=(Scatterer.of(0.0),), mobile_index=0, k0=K0)
        fields = solve_static(chain, PUMP)
        ops = operator_fields(chain)
        assert diffusion(fields, ops, chain.mobile.pol, K0) == pytest.approx(0.0, abs=0)

    def test_free_scatterer_positive_and_linear_in_flux(self):
        chain = Chain(elements=(Scatterer.of(-1.5),), mobile_index=0, k0=K0)
        ops = operator_fields(chain)
        d_vals = []
        for power in (0.5, 1.0, 2.0):
            pump = PumpSpec.one_sided(power, LAM)
            fields = solve_static(chain, pump)
            d = diffusion(fields, ops, chain.mobile.pol, K0)
            assert d > 0
            d_vals.append(d)
        assert d_vals[1] / d_vals[0] == pytest.approx(2.0, rel=1e-10, abs=0)
        assert d_vals[2] / d_vals[1] == pytest.approx(2.0, rel=1e-10, abs=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_printed_sum_equals_gram_form(self, seed):
        rng = np.random.default_rng(seed)
        chain = attach_loss_modes(
            Chain(
                elements=(
                    Scatterer.of(complex(rng.uniform(-4, -0.3),
                                         rng.uniform(0, 0.3))),
                    Segment(rng.uniform(1e-4, 4e-3)),
                    Scatterer.of(complex(rng.uniform(-4, -0.3),
                                         rng.uniform(0, 0.2))),
                    Segment(rng.uniform(1e-4, 4e-3)),
                    Scatterer.of(complex(rng.uniform(-4, -0.3))),
                ),
                mobile_index=2,
                k0=K0,
            )
        )
        fields = solve_static(chain, PUMP)
        ops = operator_fields(chain)
        d_gram = diffusion(fields, ops, chain.mobile.pol, K0)
        d_sum = printed_sum_diffusion(fields, ops, K0)
        assert d_gram == pytest.approx(d_sum, rel=1e-9, abs=0)
        assert d_gram >= 0

    @settings(max_examples=80, deadline=None)
    @given(random_chains())
    def test_diffusion_nonnegative_and_equal_to_printed_sum(self, case):
        """Random 3-41-element chains, |zeta| <= 10, absorbers, both pump
        sides: D >= 0 and equal to the printed commutator sum of the same
        fields and operator vectors, evaluated in 50-digit arithmetic."""
        chain, pump = case
        zeta = chain.mobile.pol.zeta
        # the four amplitudes cancel to O(zeta) in each Gram term, which
        # costs float64 ~1e-16 / |zeta| of D
        assume(zeta == 0 or abs(zeta) >= 1e-4)
        try:
            fields = solve_static(chain, pump)
        except SingularSolveError:
            return
        ops = operator_fields(chain)
        d_gram = diffusion(fields, ops, chain.mobile.pol, K0)
        assert d_gram >= 0
        if zeta == 0:
            assert d_gram == 0
            return
        assert d_gram == pytest.approx(printed_sum_diffusion(fields, ops, K0, dps=50),
                                       rel=1e-9, abs=0)

    def test_pump_phase_invariance(self):
        chain = lossless_chain(7)
        ops = operator_fields(chain)
        base = None
        for phase in (0.0, 0.7, 2.2):
            amp = np.sqrt(PUMP.photon_flux) * np.exp(1j * phase)
            pump = PumpSpec(B0=amp, C0=0.0, power_watts=1.0, wavelength=LAM)
            fields = solve_static(chain, pump)
            d = diffusion(fields, ops, chain.mobile.pol, K0)
            if base is None:
                base = d
            assert d == pytest.approx(base, rel=1e-12, abs=0)


class TestEquilibriumTemperature:
    def test_cooling_region_positive_kbt(self):
        rep = equilibrium_temperature(1e-40, -1e-16)
        assert rep.k_B_T > 0
        assert rep.kelvin == pytest.approx(rep.k_B_T / K_BOLTZMANN, abs=0)

    def test_temperature_diverges_as_friction_vanishes(self):
        d = 1e-40
        kbt_values = [
            equilibrium_temperature(d, f).k_B_T for f in (-1e-16, -1e-18, -1e-20)
        ]
        assert kbt_values[0] < kbt_values[1] < kbt_values[2]

    def test_heating_region_signals(self):
        with pytest.raises(NonCoolingError):
            equilibrium_temperature(1e-40, 0.0)
        with pytest.raises(NonCoolingError):
            equilibrium_temperature(1e-40, 1e-18)

    def test_cavity_cooling_point_end_to_end(self):
        # a red-detuned membrane point: cooling with a finite temperature
        chain = Chain(
            elements=(
                Scatterer.of(-3.0),
                Segment(5e-3 + 0.31 * LAM - 0.004 * LAM),
                Scatterer.of(-1.0),
                Segment(5e-3 - 0.31 * LAM),
                Scatterer.of(-3.0),
            ),
            mobile_index=2,
            k0=K0,
        )
        dyn = solve_dynamic(chain, PUMP)
        rep = force_with_velocity(dyn, chain.mobile.pol, K0)
        ops = operator_fields(chain)
        d = diffusion(dyn.static(), ops, chain.mobile.pol, K0)
        assert d > 0
        if rep.friction < 0:
            temp = equilibrium_temperature(d, rep.friction)
            assert temp.k_B_T > 0
            assert np.isfinite(temp.kelvin)
