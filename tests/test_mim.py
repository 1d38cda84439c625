"""Membrane-in-the-middle layer: geometry, scans, overlay, model comparison."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tmmcavity
import tmmcavity.mim as mim
from tmmcavity import cli, dynamics, statics
from tmmcavity.elements import Chain, PumpSpec, Scatterer, Segment
from tmmcavity.errors import CalibrationError, ChainError
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
    evaluate_chain,
    overlay_base_curves,
    overlay_candidates,
    point_quantities,
    pump_for,
    scan,
)
from tmmcavity.constants import c as C_LIGHT
from tmmcavity.dynamics import solve_dynamic
from tmmcavity.noise import diffusion, equilibrium_temperature, operator_fields
from tmmcavity.opalg import _factor
from tmmcavity.statics import solve_static, static_force

from helpers import (
    BREAKDOWN_ZETAS, bare_intensity, fd_first_order_fields, fd_friction,
    flux_force_first_order, mp_diffusion, mp_static_fields, scalar_probe_center,
    side_growth, singular_column, wall_clock_limit,
)

LAM = 1.064e-6

# small fast cavity for most tests; the full 6.7 cm defaults run in the
# acceptance suite
FAST = MimConfig(cavity_length=5e-3, membrane_zeta=-1.0, mirror_zeta=-3.0)


class TestConfigAndGeometry:
    def test_defaults_match_standard_setup(self):
        cfg = MimConfig()
        assert cfg.wavelength == pytest.approx(1.064e-6, abs=0)
        assert cfg.cavity_length == pytest.approx(6.7e-2, abs=0)
        assert cfg.power_watts == 1.0
        assert cfg.mirror_zeta == -30.0

    def test_positive_membrane_zeta_rejected(self):
        with pytest.raises(ChainError):
            MimConfig(membrane_zeta=0.5)

    @pytest.mark.parametrize("field, value", [
        ("membrane_zeta", -1 + 0.1j),
        ("membrane_zeta", float("nan")),
        ("membrane_zeta", -math.inf),
        ("mirror_zeta", -30 + 0.1j),
        ("mirror_zeta", float("nan")),
        ("power_watts", float("nan")),
        ("power_watts", math.inf),
        ("wavelength", float("nan")),
        ("cavity_length", math.inf),
        ("cavity_length", "6.7cm"),
    ])
    def test_non_real_or_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ChainError, match=field):
            MimConfig(**{field: value})

    def test_numbers_stored_as_floats(self):
        cfg = MimConfig(membrane_zeta=-2, mirror_zeta=np.float64(-30), power_watts=1)
        assert cfg == MimConfig(membrane_zeta=-2.0, mirror_zeta=-30.0)
        assert all(type(v) is float for v in (cfg.membrane_zeta, cfg.mirror_zeta,
                                               cfg.power_watts))

    def test_displacement_beyond_wavelength_rejected(self):
        with pytest.raises(ChainError):
            build_mim(FAST, 1.5 * LAM, 0.0)

    def test_chain_layout(self):
        x, dlc = 0.1 * LAM, 0.2 * LAM
        chain = build_mim(FAST, x, dlc)
        assert chain.mobile_index == 2
        assert isinstance(chain.elements[1], Segment)
        assert chain.elements[1].length == pytest.approx(
            FAST.cavity_length / 2 + dlc / 2 - x, abs=0
        )
        assert chain.elements[3].length == pytest.approx(
            FAST.cavity_length / 2 + dlc / 2 + x, abs=0
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
                assert a == pytest.approx(b, rel=1e-9, abs=0)
                _assert_mirror_pair(FAST, x, dlc)

    def test_resonance_positions_even_in_x(self):
        # branch curves depend on x only through cos(2 k0 x)
        from tmmcavity.statics import resonance_shifts

        for x in (0.04 * LAM, 0.29 * LAM):
            a = resonance_shifts(-1.0, x, FAST.cavity_length, FAST.k0)
            b = resonance_shifts(-1.0, -x, FAST.cavity_length, FAST.k0)
            assert a[0] == pytest.approx(b[0], rel=1e-12, abs=0)
            assert a[1] == pytest.approx(b[1], rel=1e-12, abs=0)

    def test_maps_periodic_in_half_wavelength(self):
        pump = pump_for(FAST)
        for x in (0.04 * LAM, -0.17 * LAM):
            a = solve_static(build_mim(FAST, x, 0.03 * LAM), pump).intensity
            b = solve_static(build_mim(FAST, x + LAM / 2, 0.03 * LAM), pump).intensity
            assert a == pytest.approx(b, rel=1e-6, abs=0)

    def test_linewidth_scales_with_mirror_transmission(self):
        _, fwhm_soft = bare_resonance(FAST.replace(mirror_zeta=-8.0))
        _, fwhm_hard = bare_resonance(FAST.replace(mirror_zeta=-16.0))
        expect = (1 + 16.0**2) / (1 + 8.0**2)
        assert fwhm_soft / fwhm_hard == pytest.approx(expect, rel=0.02, abs=0)


class TestScan:
    def grid(self):
        return ScanGrid(-0.2 * LAM, 0.2 * LAM, 5, -0.1 * LAM, 0.1 * LAM, 4)

    def test_rows_row_major_and_complete(self):
        result = scan(FAST, self.grid())
        assert all(getattr(result, q).shape == (5, 4) for q in result.QUANTITIES)
        xs = self.grid().x_values
        dls = self.grid().dlc_values
        for i in range(5):
            for j in range(4):
                p = result.point(i, j)
                assert p.x == xs[i] and p.dlc == dls[j]
                assert p.intensity is not None and p.D is not None
                assert p.D >= 0

    def test_deterministic_across_calls(self):
        a = scan(FAST, self.grid())
        b = scan(FAST, self.grid())
        for q in a.QUANTITIES:
            assert getattr(a, q).tobytes() == getattr(b, q).tobytes()
        assert len(a.overlay) == len(b.overlay) == 4
        for u, v in zip(a.overlay, b.overlay):
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes()

    def test_overlay_table_present_and_in_window(self):
        result = scan(FAST, self.grid())
        x, branch, fold, dlc = result.overlay
        assert len(dlc) > 0
        assert x.shape == branch.shape == fold.shape == dlc.shape
        assert set(x.tolist()) <= set(self.grid().x_values.tolist())
        for b, d in zip(branch.tolist(), dlc.tolist()):
            assert result.BRANCHES[b] in ("plus", "minus")
            assert -0.1 * LAM - 1e-12 <= d <= 0.1 * LAM + 1e-12

    @pytest.mark.parametrize("membrane_zeta, grid", [
        (-1.0, ScanGrid(-0.2 * LAM, 0.2 * LAM, 5, -0.1 * LAM, 0.1 * LAM, 4)),
        (-10.0, ScanGrid(-0.5 * LAM, 0.5 * LAM, 23, -1.3 * LAM, 0.7 * LAM, 3)),
        (0.0, ScanGrid(-0.3 * LAM, 0.4 * LAM, 7, 0.05 * LAM, 0.06 * LAM, 2)),
        (-3.0, ScanGrid(0.1 * LAM, 0.1 * LAM, 1, -0.25 * LAM, 0.25 * LAM, 1)),
    ])
    def test_overlay_columns_equal_the_row_loop(self, membrane_zeta, grid):
        """The columnar overlay holds, bit for bit and in order, the rows of
        a per-branch, per-x loop over the folds n of each branch value
        with base + n lambda/2 in the dLc window."""
        cfg = FAST.replace(membrane_zeta=membrane_zeta)
        lo, hi = float(np.min(grid.dlc_values)), float(np.max(grid.dlc_values))
        rows = []
        for b, base in enumerate(overlay_base_curves(cfg, grid.x_values)):
            for xv, bv in zip(grid.x_values.tolist(), base.tolist()):
                for n in range(math.ceil((lo - bv) / (LAM / 2)),
                               math.floor((hi - bv) / (LAM / 2)) + 1):
                    rows.append((xv, b, n, bv + n * LAM / 2))
        columns = scan(cfg, grid).overlay
        assert list(zip(*(c.tolist() for c in columns))) == rows

    def test_singular_points_become_markers(self, monkeypatch, tmp_path):
        singular_column(monkeypatch, 0.2 * LAM)
        result = scan(FAST, self.grid())
        points = [result.point(i, j) for i in range(5) for j in range(4)]
        missing = [p for p in points if p.intensity is None]
        present = [p for p in points if p.intensity is not None]
        assert len(missing) == 4  # one x column
        assert all(p.x == 0.2 * LAM for p in missing)
        assert all(p.F0 is None and p.dFdv is None and p.D is None and p.kBT is None
                   for p in missing)
        assert len(missing) + len(present) == 20
        assert result.missing_points == 4

        # the same markers reach the CSV (empty cells) and the sidecar
        g = self.grid()
        ini = tmp_path / "scan.ini"
        ini.write_text(
            "[run]\nschema_version = 1\n[pump]\nwavelength = 1064nm\n"
            "[mim]\ncavity_length = 5mm\nmembrane_zeta = -1.0\nmirror_zeta = -3.0\n"
            f"[grid]\nx_start = {g.x_start!r}\nx_stop = {g.x_stop!r}\nx_count = 5\n"
            f"dlc_start = {g.dlc_start!r}\ndlc_stop = {g.dlc_stop!r}\ndlc_count = 4\n"
        )
        out = tmp_path / "scan.csv"
        assert cli.run(["scan", "--config", str(ini), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 20
        empty = [r for r in rows if r[2:] == [""] * 5]
        assert len(empty) == 4
        assert all(float(r[0]) == 0.2 * LAM for r in empty)
        meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
        assert meta["missing_points"] == 4

    def test_singular_points_shared_by_compare_and_point(self, monkeypatch):
        """The static stage's verdict reaches every entry point alike."""
        singular_column(monkeypatch, 0.2 * LAM)
        cmp = compare_models(FAST, self.grid())
        assert np.isnan(cmp.F0_tmm[4]).all() and np.isnan(cmp.discrepancy[4]).all()
        assert not np.isnan(cmp.F0_tmm[:4]).any()
        assert np.isfinite(cmp.summary)
        p = point_quantities(FAST, 0.2 * LAM, 0.05 * LAM)
        assert (p.x, p.dlc) == (0.2 * LAM, 0.05 * LAM)
        assert (p.intensity, p.F0, p.dFdv, p.D, p.kBT) == (None,) * 5
        assert point_quantities(FAST, -0.2 * LAM, 0.05 * LAM).intensity is not None


_QUANTITIES = ("intensity", "F0", "dFdv", "D", "kBT")


def _assert_mirror_pair(cfg, x: float, dlc: float):
    """The engine pumped from the right at (x, dlc) equals it pumped from the
    left at (-x, dlc), the mirrored chain, bit for bit: F0 negated, the
    other quantities equal."""
    right = point_quantities(cfg.replace(pump_side="right"), x, dlc)
    left = point_quantities(cfg.replace(pump_side="left"), -x, dlc)
    assert right.F0 == (None if left.F0 is None else -left.F0)
    for q in ("intensity", "dFdv", "D", "kBT"):
        assert getattr(right, q) == getattr(left, q), q


@st.composite
def _mim_cases(draw):
    """A random MIM configuration and a small grid inside its limits.

    Mirrors and membrane stay at moderate finesse (|zeta| <= 5 and 3);
    `test_scan_diffusion_nonnegative` widens them, and the default
    strong-mirror setup is covered by `test_default_config_agrees_bit_for_bit`.
    """
    lam = draw(st.floats(0.5e-6, 2e-6))
    cfg = MimConfig(
        wavelength=lam,
        cavity_length=draw(st.floats(1e-3, 0.1)),
        membrane_zeta=draw(st.one_of(st.just(0.0), st.floats(-3.0, -0.01))),
        mirror_zeta=draw(st.floats(-5.0, -0.5)),
        power_watts=draw(st.floats(1e-3, 10.0)),
        pump_side=draw(st.sampled_from(["left", "right"])),
    )
    x0 = draw(st.floats(-lam, lam - 1e-9))
    d0 = draw(st.floats(-lam, lam))
    grid = ScanGrid(
        x0, draw(st.floats(x0 + 1e-9, lam)), draw(st.integers(1, 5)),
        d0, d0 + draw(st.floats(1e-10, lam)), draw(st.integers(1, 5)),
    )
    return cfg, grid


class TestGridEngine:
    """The vectorised scan against `evaluate_chain` and `point_quantities`
    on the same chains: one kernel and one finish, so every value is equal
    bit for bit.  Accuracy is carried by the oracle tests."""

    @staticmethod
    def _check_against_points(cfg, grid):
        """Every cell of `scan` pumped from either side against
        `evaluate_chain(build_mim(...))` and `point_quantities` at the same
        point: no cell is singular, and all five quantities are equal, with
        None exactly where the cell's kBT is NaN."""
        for side in ("left", "right"):
            cfg = cfg.replace(pump_side=side)
            result, pump = scan(cfg, grid), pump_for(cfg)
            for q in ("intensity", "F0", "dFdv", "D"):
                assert not np.isnan(getattr(result, q)).any(), (side, q)
            for i, x in enumerate(grid.x_values.tolist()):
                for j, dlc in enumerate(grid.dlc_values.tolist()):
                    cell = {q: getattr(result, q)[i, j].item() for q in _QUANTITIES}
                    cell["kBT"] = None if math.isnan(cell["kBT"]) else cell["kBT"]
                    assert evaluate_chain(build_mim(cfg, x, dlc), pump) == cell, (side, x, dlc)
                    assert asdict(point_quantities(cfg, x, dlc)) == {"x": x, "dlc": dlc, **cell}
            # kBT is derived from the stored floats, exactly where dFdv < 0
            cooling = result.dFdv < 0
            assert (~np.isnan(result.kBT) == cooling).all()
            assert (result.kBT[cooling] == -result.D[cooling] / result.dFdv[cooling]).all()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mim_cases())
    def test_scan_agrees_with_evaluate_chain(self, case):
        """`point_quantities`, the `scan` cell and `evaluate_chain` of the
        MIM chain are bit-equal in all five quantities, from both pump
        sides, on random moderate-finesse grids without singular points."""
        self._check_against_points(*case)

    def test_default_config_agrees_bit_for_bit(self):
        """The default strong-mirror setup (zeta_m = -30, finesse ~1400) on
        a 41 x 41 grid over one wavelength, the benchmark's `mim_scan`
        grid: bit-equal from both pump sides too, where the finesse
        amplifies float64 rounding to ~1e-7 near resonances."""
        grid = ScanGrid(-LAM / 2, LAM / 2, 41, -LAM / 2, LAM / 2, 41)
        self._check_against_points(MimConfig(), grid)

    def test_point_views_match_columns(self):
        grid = ScanGrid(-0.2 * LAM, 0.2 * LAM, 3, -0.1 * LAM, 0.1 * LAM, 4)
        result = scan(FAST, grid)
        for i, x in enumerate(grid.x_values):
            for j, dlc in enumerate(grid.dlc_values):
                p = result.point(i, j)
                assert (p.x, p.dlc) == (x, dlc)
                assert p == point_quantities(FAST, float(x), float(dlc))
                for q in result.QUANTITIES:
                    v = getattr(result, q)[i, j]
                    assert getattr(p, q) == (None if np.isnan(v) else v)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("zeta", [-1.0, -0.2])
    def test_zero_power_gives_zero_quantities(self, side, zeta):
        """A 0 W pump is valid input: every field is zero, so intensity,
        F0, dF/dv and D are zero in every cell and at every point, and no
        cell is marked singular."""
        cfg = MimConfig(cavity_length=5e-3, membrane_zeta=zeta, mirror_zeta=-3.0,
                        power_watts=0.0, pump_side=side)
        grid = ScanGrid(-0.2 * LAM, 0.2 * LAM, 3, -0.1 * LAM, 0.1 * LAM, 4)
        result = scan(cfg, grid)
        for q in ("intensity", "F0", "dFdv", "D"):
            assert (getattr(result, q) == 0).all(), q
        p = point_quantities(cfg, 0.1 * LAM, 0.05 * LAM)
        assert (p.intensity, p.F0, p.dFdv, p.D) == (0, 0, 0, 0)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mim_cases())
    def test_point_quantities_equals_scan_cell(self, case):
        """One engine: a batch of one point gives the `scan` cell bit for
        bit, with None exactly where the cell is NaN."""
        cfg, grid = case
        result = scan(cfg, grid)
        for i, x in enumerate(grid.x_values.tolist()):
            for j, dlc in enumerate(grid.dlc_values.tolist()):
                p = point_quantities(cfg, x, dlc)
                for q in result.QUANTITIES:
                    cell, got = getattr(result, q)[i, j], getattr(p, q)
                    if np.isnan(cell):
                        assert got is None, q
                    else:
                        assert got is not None and got == cell, q

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mim_cases())
    def test_engine_mirror_symmetry_swaps_pump_side(self, case):
        """`_assert_mirror_pair` at every point of random grids."""
        cfg, grid = case
        for x in grid.x_values.tolist():
            for dlc in grid.dlc_values.tolist():
                _assert_mirror_pair(cfg, x, dlc)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mim_cases(), st.floats(-30.0, -0.5), st.floats(-10.0, 0.0))
    def test_scan_diffusion_nonnegative(self, case, mirror_zeta, membrane_zeta):
        """D >= 0 at every non-singular cell of random MIM scans, up to
        high finesse (mirror zeta -30, membrane zeta -10)."""
        cfg, grid = case
        cfg = cfg.replace(mirror_zeta=mirror_zeta, membrane_zeta=membrane_zeta)
        d_coeff = scan(cfg, grid).D
        assert (d_coeff[~np.isnan(d_coeff)] >= 0).all()

    def test_diffusion_matches_50_digit_evaluation(self):
        """The default strong-mirror setup on an 11 x 11 grid over one
        wavelength: D against the printed sum over the two unit-pump
        columns in 50-digit arithmetic.  The Gram form's median error is
        4.5e-11 (the printed sum's was 2.1e-10); the max is set by the
        float64 phase k0 L, which the finesse amplifies."""
        cfg = MimConfig()
        grid = ScanGrid(-LAM / 2, LAM / 2, 11, -LAM / 2, LAM / 2, 11)
        d_coeff, pump = scan(cfg, grid).D, pump_for(cfg)
        errors = [abs(d_coeff[i, j] / mp_diffusion(build_mim(cfg, x, dlc), pump) - 1)
                  for i, x in enumerate(grid.x_values.tolist())
                  for j, dlc in enumerate(grid.dlc_values.tolist())]
        assert np.median(errors) < 1e-10
        assert max(errors) < 1e-7

    def test_right_pump_matches_50_digit_composition(self):
        """Right-pumped high-finesse chains (mirror zeta -30 to -10,
        membrane zeta -10 to -3): the static fields of `solve_static` and
        the intensity of the grid engine against the same chain composed in
        50-digit mpmath, at rtol 1e-8.  Forming the left output as
        g C0 + a D_out cancels to ~1e-7 here; (a B0 + C0) / b keeps ~1e-9."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            cfg = MimConfig(mirror_zeta=float(rng.uniform(-30, -10)),
                            membrane_zeta=float(rng.uniform(-10, -3)), pump_side="right")
            x, dlc = rng.uniform(-cfg.wavelength / 2, cfg.wavelength / 2, 2).tolist()
            chain, pump = build_mim(cfg, x, dlc), pump_for(cfg)
            ref = mp_static_fields(chain, pump)
            fields = solve_static(chain, pump)
            for name in ("A0", "B0f", "C0f", "D0f", "out_left", "out_right"):
                assert getattr(fields, name) == pytest.approx(ref[name], rel=1e-8, abs=0), name
            intensity = abs(ref["A0"] + ref["B0f"]) ** 2
            assert point_quantities(cfg, x, dlc).intensity == pytest.approx(intensity, rel=1e-8,
                                                                            abs=0)

    def test_right_pump_first_order_matches_80_digit_oracle(self):
        """The same right-pumped chains: A1, B1, C1 and D1 of `solve_dynamic`
        at rtol 5e-9, and dF/dv of the grid engine and of `evaluate_chain` at
        rtol 2e-8, against the 80-digit sideband oracle.  Both solve the
        right pump as the left pump of the mirrored chain (max errors here
        2e-9 in the fields, 5.5e-9 and 3.3e-9 in dF/dv); a closed form of
        the right pump itself cancels like g C0 + a D_out and missed dF/dv
        by up to 4.9e-7 on these chains."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            cfg = MimConfig(mirror_zeta=float(rng.uniform(-30, -10)),
                            membrane_zeta=float(rng.uniform(-10, -3)), pump_side="right")
            x, dlc = rng.uniform(-cfg.wavelength / 2, cfg.wavelength / 2, 2).tolist()
            chain, pump = build_mim(cfg, x, dlc), pump_for(cfg)
            ref = fd_first_order_fields(chain, pump, v_over_c=1e-30, dps=80)
            fields = solve_dynamic(chain, pump)
            for name in ("A1", "B1", "C1", "D1"):
                assert getattr(fields, name) == pytest.approx(ref[name], rel=5e-9, abs=0), name
            friction = flux_force_first_order(ref, chain.k0) / C_LIGHT
            assert point_quantities(cfg, x, dlc).dFdv == pytest.approx(friction, rel=2e-8,
                                                                       abs=0)
            assert evaluate_chain(chain, pump)["dFdv"] == pytest.approx(friction, rel=2e-8,
                                                                        abs=0)

    def test_backward_phase_is_the_exact_exp(self):
        """The kernel takes e^{-ik0L} as the conjugate of e^{ik0L}, and its
        k-derivative -iL e^{-ik0L} as the conjugate of iL e^{ik0L}: on
        random gaps at optical k0 that is the complex exp bit for bit, so
        the propagation entries are those of np.exp(-1j * k0 * L)."""
        rng = np.random.default_rng(105)
        for wavelength in (1.064e-6, 532e-9, 1.55e-6, float(rng.uniform(4e-7, 2e-6))):
            k0 = MimConfig(wavelength=wavelength, cavity_length=0.2).k0
            for gap in rng.uniform(0.0, 0.2, (2, 20000)):
                p, dp = _factor(gap, k0, True)
                assert p[1] is p[2] is dp[1] is dp[2] is None
                back = np.exp(-1j * k0 * gap)
                assert p[0].tobytes() == np.exp(1j * k0 * gap).tobytes()
                assert p[3].tobytes() == back.tobytes()
                assert dp[3].tobytes() == (-1j * gap * back).tobytes()

    def test_block_size_does_not_change_the_output(self, monkeypatch):
        """A 129 x 129 grid (16641 points: three blocks at the default
        size, the last ragged) gives the same bits with the default block
        size and with blocks of 97 points.  Blocks of 16384 points or more
        fail here: from 256 KiB operands on, numpy computes some complex
        products in place in a temporary, which rounds differently in the
        last bits."""
        grid = ScanGrid(-LAM / 2, LAM / 2, 129, -LAM / 2, LAM / 2, 129)
        assert mim._BLOCK_POINTS < 129 * 129  # more than one block by default
        default = scan(MimConfig(), grid)
        monkeypatch.setattr(mim, "_BLOCK_POINTS", 97)
        blocked = scan(MimConfig(), grid)
        for q in default.QUANTITIES:
            assert getattr(default, q).tobytes() == getattr(blocked, q).tobytes(), q

    def test_grid_outside_geometry_raises(self):
        grid = ScanGrid(-0.5 * LAM, 1.5 * LAM, 3, 0.0, 0.1 * LAM, 2)
        with pytest.raises(ChainError):
            scan(FAST, grid)

    @pytest.mark.parametrize("x, dlc", [(math.nan, 0.0), (0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_point_raises(self, x, dlc):
        with pytest.raises(ChainError, match="finite"):
            point_quantities(FAST, x, dlc)


def _oracle_chain(seed: int, absorbers: bool = False) -> Chain:
    """3-21 elements: 2-11 scatterers with |Re zeta| <= 10 and the segments
    between them, a random mobile scatterer; with `absorbers`, about half
    the scatterers (at least one) absorb, Im zeta <= 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    lossy = rng.random(n) < 0.5 if absorbers else np.zeros(n, bool)
    lossy[int(rng.integers(0, n))] |= absorbers
    elements = []
    for i in range(n):
        if i:
            elements.append(Segment(rng.uniform(1e-4, 5e-3)))
        elements.append(Scatterer.of(complex(rng.uniform(-10, 10),
                                             rng.uniform(0, 1) if lossy[i] else 0.0)))
    return Chain(tuple(elements), 2 * int(rng.integers(0, n)), 2 * math.pi / LAM)


_AMP = np.sqrt(PumpSpec.one_sided(1.0, LAM).photon_flux / 2)
_PUMPS = {"left": PumpSpec.one_sided(1.0, LAM), "right": PumpSpec.one_sided(1.0, LAM, "right"),
          "two-sided": PumpSpec(B0=_AMP, C0=_AMP * np.exp(0.7j), power_watts=1.0,
                                wavelength=LAM)}


class TestEvaluateChainOracles:
    """`evaluate_chain` on general chains against oracles that share none
    of its code: now that `scan` and `evaluate_chain` run one finish, their
    agreement says nothing about accuracy, and these tests carry it."""

    @pytest.mark.parametrize("side", _PUMPS)
    def test_lossless_chain_against_mpmath(self, side):
        """D against the 50-digit commutator sum (`mp_diffusion`) and dF/dv
        against the 60-digit sideband oracle (`fd_friction`) on seeded
        lossless chains, relative to 1e-9 + 1e-12 `side_growth`.  Over 300
        seeds the worst error was 0.55 of that bound, on this finish and on
        the per-chain formulas it replaced alike."""
        pump = _PUMPS[side]
        for seed in range(20):
            chain = _oracle_chain(seed)
            bound = 1e-9 + 1e-12 * side_growth(chain)
            got = evaluate_chain(chain, pump)
            assert got["D"] == pytest.approx(mp_diffusion(chain, pump), rel=bound, abs=0), seed
            friction = fd_friction(chain, pump, v_over_c=1e-30, dps=60)
            assert got["dFdv"] == pytest.approx(friction, rel=bound, abs=0), seed

    @pytest.mark.parametrize("side", _PUMPS)
    def test_lone_scatterer(self, side):
        """A chain without segments composes scalar matrices, and its noise
        columns still have the fields' shape: a lone scatterer, lossless or
        absorbing, against the sideband oracle for dF/dv, the chain-frame
        `diffusion` for D, and for the lossless one `mp_diffusion`."""
        pump = _PUMPS[side]
        for zeta in (-2.0, complex(-1.0, 0.3)):
            chain = Chain((Scatterer.of(zeta),), 0, 2 * math.pi / LAM)
            got = evaluate_chain(chain, pump)
            want = diffusion(solve_static(chain, pump), operator_fields(chain),
                             chain.mobile.pol, chain.k0)
            assert got["D"] == pytest.approx(want, rel=1e-12, abs=0), zeta
            if zeta.imag == 0:
                assert got["D"] == pytest.approx(mp_diffusion(chain, pump), rel=1e-12, abs=0)
            friction = fd_friction(chain, pump, v_over_c=1e-30, dps=60)
            assert got["dFdv"] == pytest.approx(friction, rel=1e-12, abs=0), zeta

    @pytest.mark.parametrize("side", ["right", "two-sided"])
    def test_absorptive_chain_diffusion_equals_the_chain_frame(self, side):
        """On chains with absorbers a right pump is finished in the reversed
        chain's frame, with the noise columns of `operator_fields`
        reordered: D equals the public chain-frame `diffusion` at rtol
        1e-12, as does a two-sided pump's sum."""
        pump = _PUMPS[side]
        for seed in range(20):
            chain = _oracle_chain(seed, absorbers=True)
            want = diffusion(solve_static(chain, pump), operator_fields(chain),
                             chain.mobile.pol, chain.k0)
            assert evaluate_chain(chain, pump)["D"] == pytest.approx(want, rel=1e-12, abs=0), seed


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


    @pytest.mark.parametrize("membrane_zeta", [-1.0, -10.0, 0.0])
    def test_candidates_equal_scan_overlay_rows(self, membrane_zeta):
        """`overlay_candidates` and a scan's overlay rows fold the branch
        curves the same way.  One x per scan: over several x the scan
        unwraps the branch angle continuously, while a single x takes its
        principal value, so the two differ by whole wavelengths there."""
        cfg = FAST.replace(membrane_zeta=membrane_zeta)
        window = (-0.6 * LAM, 0.4 * LAM)
        for x in (0.08 * LAM, -0.19 * LAM, 0.0, 0.37 * LAM):
            result = scan(cfg, ScanGrid(x, x, 1, *window, 3))
            xs, _, _, dlcs = result.overlay
            rows = sorted(dlc for xv, dlc in zip(xs.tolist(), dlcs.tolist()) if xv == x)
            assert len(rows) == len(dlcs) >= 2
            assert rows == overlay_candidates(cfg, x, window)


class TestCalibration:
    @pytest.mark.parametrize("mirror_zeta", [-0.2, -0.3, -0.7, -1.0, -2.0, -30.0])
    def test_anchor_is_the_peak_nearest_zero(self, mirror_zeta):
        """The anchor is the bare profile's peak in [-lambda/4, lambda/4):
        a search window wider than the lambda/2 period once returned a
        peak in another fold for |mirror_zeta| <= 1."""
        cfg = MimConfig(mirror_zeta=mirror_zeta)
        anchor = bare_peak(cfg)
        assert -LAM / 4 <= anchor < LAM / 4
        step = 1e-6 * LAM
        peak = bare_intensity(cfg, anchor)
        assert peak > bare_intensity(cfg, anchor - step)
        assert peak > bare_intensity(cfg, anchor + step)

    def test_closed_form_matches_the_chain(self):
        """Peak and FWHM against a 40-digit evaluation of the bare chain,
        over |mirror_zeta| in [0.46, 100], Lc in [10, 130] mm and both
        pump sides: the anchor is the local maximum and the profile is at
        half its peak at anchor +/- FWHM / 2."""
        rng = np.random.default_rng(7)
        configs = [MimConfig(cavity_length=lc, mirror_zeta=zm, pump_side=side)
                   for zm, lc in ((-0.46, 10e-3), (100.0, 130e-3), (-100.0, 10e-3))
                   for side in ("left", "right")]
        configs += [MimConfig(cavity_length=rng.uniform(10e-3, 130e-3),
                              mirror_zeta=rng.choice([-1, 1]) * 10 ** rng.uniform(
                                  math.log10(0.46), 2),
                              pump_side=rng.choice(["left", "right"]))
                    for _ in range(24)]
        for cfg in configs:
            anchor, fwhm = bare_resonance(cfg)
            peak = bare_intensity(cfg, anchor)
            for sign in (-1, 1):
                assert bare_intensity(cfg, anchor + sign * 1e-4 * fwhm) < peak, cfg
                half = bare_intensity(cfg, anchor + sign * fwhm / 2) / peak
                assert float(half) == pytest.approx(0.5, rel=1e-6, abs=0), cfg

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
        assert res.intensity.size == 4
        assert len(res.overlay[3]) > 0

    def test_transparent_mirror_scan_raises_typed_error(self):
        grid = ScanGrid(-0.1 * LAM, 0.1 * LAM, 2, -0.1 * LAM, 0.1 * LAM, 2)
        with wall_clock_limit(30.0), pytest.raises(CalibrationError):
            scan(MimConfig(mirror_zeta=0.0), grid)

    def test_compare_makes_no_scalar_solve(self, monkeypatch, tmp_path):
        """The degeneracy-point probe runs on the grid engine: `compare`
        never reaches the scalar `solve_static`."""
        def forbidden(*args, **kwargs):
            raise AssertionError("scalar solve_static on the compare path")

        for module in (tmmcavity, statics, dynamics, mim):
            monkeypatch.setattr(module, "solve_static", forbidden, raising=False)
        grid = ScanGrid(-0.1 * LAM, 0.1 * LAM, 3, -0.1 * LAM, 0.1 * LAM, 4)
        assert np.isfinite(compare_models(FAST, grid).summary)
        ini = tmp_path / "compare.ini"
        ini.write_text(
            "[run]\nschema_version = 1\n[pump]\nwavelength = 1064nm\n"
            "[mim]\ncavity_length = 5mm\nmembrane_zeta = -1.0\nmirror_zeta = -3.0\n"
            f"[grid]\nx_start = {grid.x_start!r}\nx_stop = {grid.x_stop!r}\nx_count = 3\n"
            f"dlc_start = {grid.dlc_start!r}\ndlc_stop = {grid.dlc_stop!r}\ndlc_count = 4\n"
        )
        out = tmp_path / "compare.csv"
        assert cli.run(["compare", "--config", str(ini), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 13

    def test_calibration_runs_no_solve(self, monkeypatch):
        """The live degeneracy-point copy is placed in closed form: with the
        kernel disabled the calibration still runs and picks the same point."""
        configs = (FAST, FAST.replace(membrane_zeta=0.0, pump_side="right"))
        expect = [calibrate_coupled_params(cfg).dlc_center for cfg in configs]

        def forbidden(*args, **kwargs):
            raise AssertionError("kernel solve in the calibration")

        monkeypatch.setattr(mim, "_solve_left_pump", forbidden)
        assert [calibrate_coupled_params(cfg).dlc_center for cfg in configs] == expect

    def test_transparent_membrane_keeps_the_copy_nearer_zero_on_long_cavities(self):
        """With zeta = 0 (-0.0 too) both copies are one bare cavity, and the
        one nearer dlc = 0 is kept however many wavelengths the cavity
        holds: a 1 m cavity, and a seeded sweep over wavelengths of
        1e-29..1e29 m and cavities of 1..1e10 wavelengths."""
        cfg = MimConfig(cavity_length=1.0, membrane_zeta=0.0, mirror_zeta=-30.0)
        assert abs(calibrate_coupled_params(cfg).dlc_center) <= cfg.wavelength / 4
        rng = np.random.default_rng(27)
        for _ in range(200):
            lam = float(10 ** rng.uniform(-29, 29))
            cfg = MimConfig(wavelength=lam, cavity_length=lam * float(10 ** rng.uniform(0, 10)),
                            membrane_zeta=float(rng.choice([0.0, -0.0])),
                            mirror_zeta=float(rng.choice([-1, 1]) * 10 ** rng.uniform(-0.3, 3)),
                            pump_side=str(rng.choice(["left", "right"])))
            assert abs(calibrate_coupled_params(cfg).dlc_center) <= lam / 4, cfg

    def test_phase_rule_picks_the_scalar_probe_center_at_every_scale(self):
        """Where the membrane sets the copies' responses clearly apart
        (|zeta| 1e-3..1e8), the sub-cavity phase rule picks the copy that
        scalar `solve_static` probes pick, over wavelengths of 1e-29..1e29 m,
        cavities of 1..1e10 wavelengths and mirrors of either sign."""
        rng = np.random.default_rng(2395)
        for _ in range(40):
            lam = float(10 ** rng.uniform(-29, 29))
            cfg = MimConfig(wavelength=lam, cavity_length=lam * float(10 ** rng.uniform(0, 10)),
                            membrane_zeta=-float(10 ** rng.uniform(-3, 8)),
                            mirror_zeta=float(rng.choice([-1, 1]) * 10 ** rng.uniform(-0.3, 3)),
                            pump_side=str(rng.choice(["left", "right"])))
            assert calibrate_coupled_params(cfg).dlc_center == scalar_probe_center(cfg), cfg

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("zeta", BREAKDOWN_ZETAS)
    def test_probe_picks_the_scalar_probe_center_breakdown(self, zeta, side):
        """Criterion 8's configs (R 0.04-0.99): the engine probe picks the
        degeneracy point that scalar `solve_static` probes pick."""
        cfg = MimConfig(cavity_length=5e-3, mirror_zeta=-3.0, membrane_zeta=zeta,
                        pump_side=side)
        assert calibrate_coupled_params(cfg).dlc_center == scalar_probe_center(cfg)

    def test_probe_picks_the_scalar_probe_center_sweep(self):
        """A seeded sample of the high-finesse sweep (mirror zeta in
        [-30, -1], membrane zeta in [-10, 0], both pump sides)."""
        rng = np.random.default_rng(2010)
        for _ in range(40):
            cfg = MimConfig(mirror_zeta=float(rng.uniform(-30.0, -1.0)),
                            membrane_zeta=float(rng.uniform(-10.0, 0.0)),
                            pump_side=str(rng.choice(["left", "right"])))
            assert calibrate_coupled_params(cfg).dlc_center == scalar_probe_center(cfg), cfg


    def test_tied_copies_pick_the_one_nearer_zero(self):
        """A transparent membrane makes both degeneracy-point copies one
        bare cavity, so their responses tie up to rounding: on 60 random
        zeta = 0 configs the engine and the scalar probes both take the copy
        nearer dlc = 0 (rounding decided 16 of these 60 before)."""
        rng = np.random.default_rng(8)
        for _ in range(60):
            cfg = MimConfig(wavelength=float(rng.uniform(0.5e-6, 2e-6)),
                            cavity_length=float(10 ** rng.uniform(-3, -1)),
                            mirror_zeta=float(rng.uniform(-100, -0.5)), membrane_zeta=0.0,
                            pump_side=str(rng.choice(["left", "right"])))
            center = calibrate_coupled_params(cfg).dlc_center
            assert center == scalar_probe_center(cfg), cfg
            assert abs(center) <= cfg.wavelength / 4


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
        assert cal.params.g == pytest.approx(gap_freq / 2, rel=0.10, abs=0)

    def test_kappa_from_measured_linewidth(self):
        cal = calibrate_coupled_params(FAST)
        _, fwhm = bare_resonance(FAST)
        expect = FAST.omega0 * (fwhm / 2) / FAST.cavity_length
        assert cal.params.kappa_c == pytest.approx(expect, rel=1e-9, abs=0)


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
        for (i, j), f_tmm in np.ndenumerate(res.F0_tmm):
            x, dlc = res.grid.x_values[i], res.grid.dlc_values[j]
            if np.isnan(f_tmm) or abs(x) > LAM / 16:
                continue
            delta = cfg.omega0 * (dlc - cal.dlc_center) / cfg.cavity_length
            res_split = np.sqrt(g**2 + (w1 * x) ** 2)
            near = min(abs(delta - res_split), abs(delta + res_split)) < 3 * kc
            if not near:
                continue
            total += 1
            if np.sign(f_tmm) == np.sign(res.F0_coupled[i, j]):
                agree += 1
        assert total > 20
        assert agree / total >= 0.95


    def test_columns_equal_per_point_models(self):
        """Every column equals the per-point static force and coupled force."""
        cfg = FAST.replace(membrane_zeta=-2.0)
        grid = ScanGrid(-LAM / 8, LAM / 8, 7, -LAM / 4, LAM / 4, 9)
        res = compare_models(cfg, grid)
        cal = res.calibration
        pump = pump_for(cfg)
        assert res.F0_tmm.shape == res.F0_coupled.shape == (7, 9)
        for i, x in enumerate(grid.x_values):
            for j, dlc in enumerate(grid.dlc_values):
                chain = build_mim(cfg, float(x), float(dlc))
                f0 = static_force(solve_static(chain, pump), chain.mobile.pol, chain.k0)
                delta = cfg.omega0 * (float(dlc) - cal.dlc_center) / cfg.cavity_length
                fc = coupled_cavity_force(cal.params, -float(x), delta, cfg.k0)
                assert res.F0_tmm[i, j] == pytest.approx(f0, rel=1e-12, abs=1e-300)
                assert res.F0_coupled[i, j] == pytest.approx(fc, rel=1e-12, abs=0)
        # one static stage: the chain force is the `scan` F0 bit for bit
        assert res.F0_tmm.tobytes() == scan(cfg, grid).F0.tobytes()
        rms = np.sqrt(np.mean(res.F0_tmm ** 2))
        np.testing.assert_allclose(res.discrepancy,
                                   np.abs(res.F0_tmm - res.F0_coupled) / rms, rtol=1e-12)


    def test_transparent_membrane_discrepancy_undefined(self):
        """A zeta = 0 membrane feels no force anywhere: there is nothing to
        normalise by, so every discrepancy and the summary are NaN (and no
        RuntimeWarning escapes)."""
        cfg = FAST.replace(membrane_zeta=0.0)
        res = compare_models(cfg, ScanGrid(-LAM / 8, LAM / 8, 3, -LAM / 4, LAM / 4, 5))
        assert (res.F0_tmm == 0).all()
        assert np.isfinite(res.F0_coupled).all()
        assert np.isnan(res.discrepancy).all()
        assert math.isnan(res.summary)

    @pytest.mark.parametrize("zeta,power", [(-1.0, 1e290), (-1e-100, 1e200)])
    def test_forces_past_the_square_range_keep_their_ratios(self, zeta, power):
        """Forces whose squares overflow float64 (past ~1e154 N), in the
        chain model or only in the coupled one, are normalised in units of
        a power of two: the discrepancies and the summary under a huge pump
        match those under 1 W to rounding, with no RuntimeWarning."""
        cfg = MimConfig(wavelength=1e-12, cavity_length=1e-9, membrane_zeta=zeta)
        q = cfg.wavelength / 4
        grid = ScanGrid(-q, q, 5, -q, q, 5)
        low, high = compare_models(cfg, grid), compare_models(cfg.replace(power_watts=power), grid)
        assert max(np.abs(high.F0_tmm).max(), np.abs(high.F0_coupled).max()) > 1e155
        assert high.summary == pytest.approx(low.summary, rel=1e-12, abs=0)
        np.testing.assert_allclose(high.discrepancy, low.discrepancy, rtol=1e-12, atol=0)


class TestPointQuantities:
    def test_kbt_past_the_float_range_is_inf_on_every_path(self):
        """A huge D over a tiny friction (a nearly transparent membrane under
        a huge pump) gives a k_B T beyond float64: `scan`, `point_quantities`,
        `evaluate_chain` and `equilibrium_temperature` all report inf, with
        no RuntimeWarning."""
        cfg = MimConfig(wavelength=1e-29, cavity_length=2.5e-29, membrane_zeta=-1e-300,
                        mirror_zeta=-0.46, power_watts=1e300, pump_side="right")
        q = cfg.wavelength / 4
        assert scan(cfg, ScanGrid(-q, q, 3, -q, q, 3)).kBT[0, 0] == math.inf
        point = point_quantities(cfg, -q, -q)
        assert point.kBT == math.inf
        assert evaluate_chain(build_mim(cfg, -q, -q), pump_for(cfg))["kBT"] == math.inf
        assert equilibrium_temperature(point.D, point.dFdv).k_B_T == math.inf

    def test_point_record_fields(self):
        p = point_quantities(FAST, 0.12 * LAM, 0.04 * LAM)
        assert isinstance(p, ScanPoint)
        assert p.intensity > 0
        assert p.D > 0
        if p.dFdv is not None and p.dFdv < 0:
            assert p.kBT > 0
        else:
            assert p.kBT is None
