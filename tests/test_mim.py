"""Membrane-in-the-middle layer: geometry, scans, overlay, model comparison."""

import numpy as np
import pytest
from scipy.constants import c as C_LIGHT

import tmmcavity.mim as mim
from tmmcavity.elements import Segment
from tmmcavity.errors import CalibrationError, ChainError, SingularSolveError
from tmmcavity.mim import (
    CoupledCavityParams,
    MimConfig,
    ScanGrid,
    ScanPoint,
    bare_peak,
    bare_resonance,
    build_mim,
    calibrate_coupled_params,
    compare_models,
    coupled_cavity_force,
    overlay_base_curves,
    overlay_candidates,
    point_quantities,
    pump_for,
    scan,
)
from tmmcavity.statics import solve_static

from helpers import wall_clock_limit

LAM = 1.064e-6

# small fast cavity for most tests; the full 6.7 cm defaults run in the
# acceptance suite
FAST = MimConfig(cavity_length=5e-3, membrane_zeta=-1.0, mirror_zeta=-3.0)


class TestConfigAndGeometry:
    def test_defaults_match_standard_setup(self):
        cfg = MimConfig()
        assert cfg.wavelength == pytest.approx(1.064e-6)
        assert cfg.cavity_length == pytest.approx(6.7e-2)
        assert cfg.power_watts == 1.0
        assert cfg.mirror_zeta == -30.0

    def test_positive_membrane_zeta_rejected(self):
        with pytest.raises(ChainError):
            MimConfig(membrane_zeta=0.5)

    def test_displacement_beyond_wavelength_rejected(self):
        with pytest.raises(ChainError):
            build_mim(FAST, 1.5 * LAM, 0.0)

    def test_chain_layout(self):
        x, dlc = 0.1 * LAM, 0.2 * LAM
        chain = build_mim(FAST, x, dlc)
        assert chain.mobile_index == 2
        assert isinstance(chain.elements[1], Segment)
        assert chain.elements[1].length == pytest.approx(
            FAST.cavity_length / 2 + dlc / 2 - x
        )
        assert chain.elements[3].length == pytest.approx(
            FAST.cavity_length / 2 + dlc / 2 + x
        )

    def test_grid_validation(self):
        with pytest.raises(ChainError):
            ScanGrid(0, 1e-6, 0, 0, 1e-6, 5)
        with pytest.raises(ChainError):
            ScanGrid(1e-6, 0, 5, 0, 1e-6, 5)


class TestMaps:
    def test_transparent_membrane_map_independent_of_x(self):
        cfg = FAST.replace(membrane_zeta=0.0)
        pump = pump_for(cfg)
        dlc = 0.07 * LAM
        vals = [
            solve_static(build_mim(cfg, x, dlc), pump).intensity
            for x in np.linspace(-LAM / 2, LAM / 2, 7)
        ]
        # travelling-wave buildup is x-independent; the standing-wave
        # pattern moves with x, so compare the incoherent buildup instead
        fluxes = [
            abs(solve_static(build_mim(cfg, x, dlc), pump).B0f) ** 2
            for x in np.linspace(-LAM / 2, LAM / 2, 7)
        ]
        np.testing.assert_allclose(fluxes, fluxes[0], rtol=1e-9)

    def test_mirror_symmetry_swaps_pump_side(self):
        # spatial inversion maps (left pump, membrane at x) onto
        # (right pump, membrane at -x); with one-sided pumping the raw map
        # is *not* x -> -x symmetric (the field localises in the pumped
        # sub-cavity), but the mirrored configuration reproduces it exactly
        left = pump_for(FAST)
        right = pump_for(FAST.replace(pump_side="right"))
        for dlc in (-0.11 * LAM, 0.23 * LAM):
            for x in (0.08 * LAM, 0.31 * LAM):
                a = solve_static(build_mim(FAST, x, dlc), left).intensity
                b = solve_static(build_mim(FAST, -x, dlc), right).intensity
                assert a == pytest.approx(b, rel=1e-9)

    def test_resonance_positions_even_in_x(self):
        # branch curves depend on x only through cos(2 k0 x)
        from tmmcavity.statics import resonance_shifts

        for x in (0.04 * LAM, 0.29 * LAM):
            a = resonance_shifts(-1.0, x, FAST.cavity_length, FAST.k0)
            b = resonance_shifts(-1.0, -x, FAST.cavity_length, FAST.k0)
            assert a[0] == pytest.approx(b[0], rel=1e-12)
            assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_maps_periodic_in_half_wavelength(self):
        pump = pump_for(FAST)
        for x in (0.04 * LAM, -0.17 * LAM):
            a = solve_static(build_mim(FAST, x, 0.03 * LAM), pump).intensity
            b = solve_static(build_mim(FAST, x + LAM / 2, 0.03 * LAM), pump).intensity
            assert a == pytest.approx(b, rel=1e-6)

    def test_linewidth_scales_with_mirror_transmission(self):
        _, fwhm_soft = bare_resonance(FAST.replace(mirror_zeta=-8.0))
        _, fwhm_hard = bare_resonance(FAST.replace(mirror_zeta=-16.0))
        expect = (1 + 16.0**2) / (1 + 8.0**2)
        assert fwhm_soft / fwhm_hard == pytest.approx(expect, rel=0.02)


class TestScan:
    def grid(self):
        return ScanGrid(-0.2 * LAM, 0.2 * LAM, 5, -0.1 * LAM, 0.1 * LAM, 4)

    def test_rows_row_major_and_complete(self):
        result = scan(FAST, self.grid())
        assert len(result.points) == 20
        xs = self.grid().x_values
        dls = self.grid().dlc_values
        for i in range(5):
            for j in range(4):
                p = result.point(i, j)
                assert p.x == xs[i] and p.dlc == dls[j]
                assert p.intensity is not None and p.D is not None
                assert p.D >= 0

    def test_deterministic_across_worker_counts(self):
        a = scan(FAST, self.grid(), workers=1)
        b = scan(FAST, self.grid(), workers=3)
        assert a.points == b.points

    def test_overlay_table_present_and_in_window(self):
        result = scan(FAST, self.grid())
        assert len(result.overlay) > 0
        for x, label, fold, dlc in result.overlay:
            assert label in ("plus", "minus")
            assert -0.1 * LAM - 1e-12 <= dlc <= 0.1 * LAM + 1e-12

    def test_singular_points_become_markers(self, monkeypatch):
        target = FAST.replace()
        real = mim.evaluate_chain

        def sometimes_singular(chain, pump):
            # membrane displacement is half the gap-length difference
            x = (chain.elements[3].length - chain.elements[1].length) / 2
            if abs(x - 0.2 * LAM) < 1e-15:
                raise SingularSolveError("synthetic")
            return real(chain, pump)

        monkeypatch.setattr(mim, "evaluate_chain", sometimes_singular)
        result = scan(target, self.grid(), workers=1)
        missing = [p for p in result.points if p.intensity is None]
        present = [p for p in result.points if p.intensity is not None]
        assert len(missing) == 4  # one x column
        assert all(p.F0 is None and p.kBT is None for p in missing)
        assert len(missing) + len(present) == 20


class TestOverlay:
    def test_vanishing_membrane_lands_on_bare_resonance(self):
        cfg = FAST.replace(membrane_zeta=-1e-6)
        anchor, _ = bare_resonance(cfg)
        bp, bm = overlay_base_curves(cfg, [0.1 * LAM], anchor=anchor)
        half = LAM / 2
        for base in (bp[0], bm[0]):
            dist = (base - anchor) % half
            dist = min(dist, half - dist)
            assert dist < 1e-4 * LAM

    def test_candidates_hit_measured_ridges(self):
        """Regression for the overlay mapping convention."""
        from scipy.optimize import minimize_scalar

        cfg = FAST
        pump = pump_for(cfg)
        anchor, fwhm = bare_resonance(cfg)

        def intensity(x, dlc):
            return solve_static(build_mim(cfg, x, dlc), pump).intensity

        for x in (0.08 * LAM, 0.27 * LAM, -0.19 * LAM):
            dls = np.linspace(-LAM / 4, LAM / 4, 1200)
            vals = np.array([intensity(x, d) for d in dls])
            med = np.median(vals)
            ridges = []
            for i in range(1, len(dls) - 1):
                if vals[i] > vals[i - 1] and vals[i] > vals[i + 1] and vals[i] > 20 * med:
                    r = minimize_scalar(
                        lambda d: -intensity(x, d),
                        bracket=(dls[i - 1], dls[i], dls[i + 1]),
                    )
                    ridges.append(float(r.x))
            assert ridges, "no ridge found; test geometry broken"
            cands = overlay_candidates(cfg, x, (-LAM / 4 - fwhm, LAM / 4 + fwhm),
                                       anchor=anchor)
            for ridge in ridges:
                dist = min(abs(ridge - c) for c in cands)
                # measured membrane-cavity linewidths are close to the bare
                # one at this finesse; half a linewidth is the contract
                assert dist < fwhm


class TestCalibration:
    @pytest.mark.parametrize("mirror_zeta", [-0.3, -0.05, 0.0])
    def test_weak_or_transparent_mirrors_raise_typed_error(self, mirror_zeta):
        # the contrast of a weak-mirror cavity never falls to half its peak,
        # and transparent mirrors have no resonance at all
        with wall_clock_limit(30.0), pytest.raises(CalibrationError):
            bare_resonance(MimConfig(mirror_zeta=mirror_zeta))

    def test_peak_is_the_resonance_anchor(self):
        for cfg in (FAST, MimConfig()):
            assert bare_peak(cfg) == bare_resonance(cfg)[0]

    @pytest.mark.parametrize("mirror_zeta", [-0.3, -0.05])
    def test_weak_mirror_scan_returns(self, mirror_zeta):
        cfg = MimConfig(mirror_zeta=mirror_zeta)
        grid = ScanGrid(-0.1 * LAM, 0.1 * LAM, 2, -0.1 * LAM, 0.1 * LAM, 2)
        with wall_clock_limit(30.0):
            res = scan(cfg, grid)
        assert len(res.points) == 4
        assert len(res.overlay) > 0

    def test_transparent_mirror_scan_raises_typed_error(self):
        grid = ScanGrid(-0.1 * LAM, 0.1 * LAM, 2, -0.1 * LAM, 0.1 * LAM, 2)
        with wall_clock_limit(30.0), pytest.raises(CalibrationError):
            scan(MimConfig(mirror_zeta=0.0), grid)


class TestCoupledCavityModel:
    def test_g_zero_single_lorentzian_pull(self):
        params = CoupledCavityParams(
            g=0.0, kappa_c=1e7, omega_prime=-2e16, power_watts=1.0
        )
        k0 = 2 * np.pi / LAM
        force_on = coupled_cavity_force(params, 0.0, 0.0, k0)
        # with g = 0 the numerator is kappa^2 + delta^2 > 0 everywhere: the
        # force keeps one sign and peaks on resonance
        assert force_on > 0
        for delta in (-3e7, -1e7, 1e7, 3e7):
            f = coupled_cavity_force(params, 0.0, delta, k0)
            assert f > 0
            assert f < force_on

    def test_sign_at_origin_set_by_kappa_vs_g(self):
        k0 = 2 * np.pi / LAM
        strong = CoupledCavityParams(g=1e8, kappa_c=1e6, omega_prime=-2e16,
                                     power_watts=1.0)
        weak = CoupledCavityParams(g=1e5, kappa_c=1e6, omega_prime=-2e16,
                                   power_watts=1.0)
        assert coupled_cavity_force(strong, 0.0, 0.0, k0) < 0  # g > kappa
        assert coupled_cavity_force(weak, 0.0, 0.0, k0) > 0   # kappa > g

    def test_tunnelling_rate_matches_avoided_gap(self):
        """g = c|t|/Lc against half the measured branch gap, within 10%."""
        cfg = FAST.replace(membrane_zeta=-10.0)
        cal = calibrate_coupled_params(cfg)
        bp, bm = overlay_base_curves(cfg, [0.0], anchor=cal.anchor)
        gap_dlc = abs(float(bp[0]) - float(bm[0]))
        gap_freq = cfg.omega0 * gap_dlc / cfg.cavity_length
        assert cal.params.g == pytest.approx(gap_freq / 2, rel=0.10)

    def test_kappa_from_measured_linewidth(self):
        cal = calibrate_coupled_params(FAST)
        _, fwhm = bare_resonance(FAST)
        expect = FAST.omega0 * (fwhm / 2) / FAST.cavity_length
        assert cal.params.kappa_c == pytest.approx(expect, rel=1e-9)


class TestCompareModels:
    def comparison_grid(self, cfg, cal):
        lam = cfg.wavelength
        span = 0.45 * lam / 2
        return ScanGrid(
            x_start=-lam / 8, x_stop=lam / 8, x_count=13,
            dlc_start=cal.dlc_center - span, dlc_stop=cal.dlc_center + span,
            dlc_count=41,
        )

    def test_discrepancy_shrinks_with_reflectivity(self):
        summaries = {}
        for zeta in (-1.0, -10.0):
            cfg = FAST.replace(membrane_zeta=zeta)
            cal = calibrate_coupled_params(cfg)
            res = compare_models(cfg, self.comparison_grid(cfg, cal))
            summaries[zeta] = res.summary
        assert summaries[-10.0] < summaries[-1.0]
        assert summaries[-1.0] > 3 * summaries[-10.0]

    def test_sign_census_strong_membrane(self):
        cfg = FAST.replace(membrane_zeta=-10.0)
        cal = calibrate_coupled_params(cfg)
        res = compare_models(cfg, self.comparison_grid(cfg, cal))
        w1 = cal.params.omega_prime
        kc = cal.params.kappa_c
        g = cal.params.g
        agree = total = 0
        for p in res.points:
            if p.F0_tmm is None or abs(p.x) > LAM / 16:
                continue
            delta = cfg.omega0 * (p.dlc - cal.dlc_center) / cfg.cavity_length
            res_split = np.sqrt(g**2 + (w1 * p.x) ** 2)
            near = min(abs(delta - res_split), abs(delta + res_split)) < 3 * kc
            if not near:
                continue
            total += 1
            if np.sign(p.F0_tmm) == np.sign(p.F0_coupled):
                agree += 1
        assert total > 20
        assert agree / total >= 0.95


class TestPointQuantities:
    def test_point_record_fields(self):
        p = point_quantities(FAST, 0.12 * LAM, 0.04 * LAM)
        assert isinstance(p, ScanPoint)
        assert p.intensity > 0
        assert p.D > 0
        if p.dFdv is not None and p.dFdv < 0:
            assert p.kBT > 0
        else:
            assert p.kBT is None
