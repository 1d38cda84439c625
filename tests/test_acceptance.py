"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The membrane-in-the-middle scan shared by the overlay,
friction-sign and bookkeeping criteria uses the default configuration
(1064 nm, 6.7 cm cavity, membrane zeta = -1, end mirrors zeta = -30, 1 W)
on a 101 x 101 grid spanning one wavelength in both axes.
"""

import hashlib
import time

import numpy as np
import pytest
from scipy.constants import c as C_LIGHT, hbar as HBAR
from scipy.optimize import brentq, minimize_scalar

from tmmcavity import cli
from tmmcavity.dynamics import force_with_velocity, solve_dynamic
from tmmcavity.elements import Chain, PumpSpec, Scatterer, Segment
from tmmcavity.mim import (
    MimConfig,
    ScanGrid,
    bare_resonance,
    build_mim,
    calibrate_coupled_params,
    compare_models,
    overlay_candidates,
    pump_for,
    scan,
)
from tmmcavity.noise import OperatorFields, attach_loss_modes, operator_fields
from tmmcavity.statics import couplings, solve_static

from helpers import fd_friction, wall_clock_limit

LAM = 1.064e-6
K0 = 2 * np.pi / LAM
LC = 6.7e-2


def report(number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{title}]: {status}{extra}")


# ---------------------------------------------------------------------------
# shared 101 x 101 default-configuration scan and refined ridge table
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_config():
    return MimConfig()  # 1064 nm, 6.7 cm, zeta = -1, zeta_m = -30, 1 W


@pytest.fixture(scope="module")
def default_scan(default_config):
    grid = ScanGrid(-LAM / 2, LAM / 2, 101, -LAM / 2, LAM / 2, 101)
    t0 = time.perf_counter()
    # vectorised, the scan takes tens of milliseconds; the guard turns a
    # return to per-point evaluation (~37 s before jets) into a failure
    with wall_clock_limit(10.0):
        result = scan(default_config, grid)
    print(f"\n[shared scan: 101x101 in {time.perf_counter() - t0:.3f} s]")
    return result


@pytest.fixture(scope="module")
def ridge_table(default_config, default_scan):
    """Refined (x, dlc_peak, fwhm) for every interior intensity ridge."""
    config = default_config
    pump = pump_for(config)
    grid = default_scan.grid
    intensity = default_scan.intensity
    _, bare_fwhm = bare_resonance(config)

    def column_intensity(x, dlc):
        return solve_static(build_mim(config, x, dlc), pump).intensity

    ridges = []
    dls = grid.dlc_values
    for i, x in enumerate(grid.x_values):
        row = intensity[i]
        med = float(np.median(row))
        for j in range(1, grid.dlc_count - 1):
            if not (row[j] > row[j - 1] and row[j] > row[j + 1]
                    and row[j] > 20 * med):
                continue
            res = minimize_scalar(
                lambda d, xv=float(x): -column_intensity(xv, d),
                bounds=(dls[j - 1], dls[j + 1]),
                method="bounded",
                options={"xatol": bare_fwhm * 1e-6},
            )
            peak_dlc = float(res.x)
            peak_val = -float(res.fun)
            if peak_val < 20 * med:
                continue
            # measure this ridge's own full width at half maximum
            half = peak_val / 2

            def cross(sign, xv=float(x), centre=peak_dlc, hv=half):
                step = bare_fwhm
                b = centre + sign * step
                while column_intensity(xv, b) > hv:
                    step *= 2
                    b = centre + sign * step
                    if abs(b - centre) > 50 * bare_fwhm:
                        raise RuntimeError("ridge too wide to measure")
                lo, hi = sorted((centre, b))
                return brentq(
                    lambda d: column_intensity(xv, d) - hv, lo, hi,
                    xtol=bare_fwhm * 1e-9,
                )

            if (peak_dlc - dls[0] < 3 * bare_fwhm
                    or dls[-1] - peak_dlc < 3 * bare_fwhm):
                continue  # too close to the window edge to measure
            fwhm = cross(+1) - cross(-1)
            ridges.append((float(x), peak_dlc, float(fwhm)))
    assert len(ridges) > 150, f"ridge detection collapsed: {len(ridges)}"
    return ridges


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_linear_coupling_bound():
    """Max |omega'| approaches 2 k0 c / Lc = 2 pi x 8.42 MHz/nm."""
    ok = False
    try:
        t0 = time.perf_counter()
        bound = 2 * K0 * C_LIGHT / LC
        xs = np.linspace(-LAM / 4, LAM / 4, 2001)
        w1_max = max(abs(couplings(-1e6, float(x), LC, K0).omega_prime)
                     for x in xs)
        elapsed = time.perf_counter() - t0
        assert abs(w1_max - bound) / bound < 5e-3
        assert abs(bound - 2 * np.pi * 8.42e15) / (2 * np.pi * 8.42e15) < 5e-3
        assert elapsed < 1.0
        ok = True
    finally:
        report(1, "linear coupling bound 2pi x 8.42 MHz/nm", ok,
               f"max|w'| = {w1_max / (2 * np.pi) / 1e15:.4f} MHz/nm")


def test_criterion_2_quadratic_coupling_peak():
    """|omega''(0)| = (4 k0^2 c / Lc)|zeta| = 2 pi x 0.10 |zeta| MHz/nm^2."""
    ok = False
    try:
        vals = {}
        for zeta in (-1.0, -10.0):
            w2 = abs(couplings(zeta, 0.0, LC, K0).omega_double_prime)
            target = 2 * np.pi * 0.10e24 * abs(zeta)  # rad/s/m^2
            assert abs(w2 - target) / target < 0.02
            vals[zeta] = w2 / (2 * np.pi) / 1e24
        ok = True
    finally:
        report(2, "quadratic coupling peak 2pi x 0.10|zeta| MHz/nm^2", ok,
               f"0.10 fits: {vals}")


def test_criterion_3_resonance_overlay(default_config, ridge_table):
    """Every intensity ridge lies within half its measured linewidth of the
    analytic branch prediction."""
    ok = False
    worst = 0.0
    try:
        config = default_config
        anchor, _ = bare_resonance(config)
        checked = 0
        for x, peak, fwhm in ridge_table:
            cands = overlay_candidates(
                config, x, (peak - LAM / 4, peak + LAM / 4), anchor=anchor
            )
            dist = min(abs(peak - c) for c in cands)
            worst = max(worst, dist / (fwhm / 2))
            assert dist <= fwhm / 2, (
                f"ridge at x={x / LAM:.3f}lam, dlc={peak / LAM:.5f}lam "
                f"misses prediction by {dist / fwhm:.2f} fwhm"
            )
            checked += 1
        assert checked > 150
        ok = True
    finally:
        report(3, "resonance overlay within half a linewidth", ok,
               f"{len(ridge_table)} ridges, worst {worst:.2f} of tolerance")


def test_criterion_4_friction_sign_structure(default_config, ridge_table):
    """Friction < 0 on the red side and > 0 on the blue side of every
    resonance, with the zero crossing within half a linewidth."""
    ok = False
    checked = 0
    try:
        config = default_config
        pump = pump_for(config)

        def friction_at(x, dlc):
            chain = build_mim(config, x, dlc)
            rep = force_with_velocity(solve_dynamic(chain, pump),
                                      chain.mobile.pol, chain.k0)
            return rep.friction

        for x, peak, fwhm in ridge_table:
            # no linear optomechanical coupling, no red/blue asymmetry
            if abs(np.sin(2 * K0 * x)) < 0.05:
                continue
            lo = friction_at(x, peak - fwhm / 2)
            hi = friction_at(x, peak + fwhm / 2)
            assert lo < 0, f"no cooling on red side at x={x / LAM:.3f}lam"
            assert hi > 0, f"no heating on blue side at x={x / LAM:.3f}lam"
            checked += 1
        assert checked > 100
        ok = True
    finally:
        report(4, "red-cooling / blue-heating across every ridge", ok,
               f"{checked} ridges checked")


def test_criterion_5_closed_form_vs_sideband_oracle():
    """>= 100 randomized cavities: friction matches the Doppler-sideband
    finite-difference oracle to 1e-3 relative (1e-30 N s/m floor)."""
    ok = False
    worst = 0.0
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        pump = PumpSpec.one_sided(1.0, LAM)
        lc = 7.3e-3
        n_checked = 0
        for _ in range(120):
            zeta = float(rng.uniform(-10.0, -0.1))
            x = float(rng.uniform(-LAM / 2, LAM / 2))
            dlc = float(rng.uniform(-LAM / 4, LAM / 4))  # one FSR span
            chain = Chain(
                elements=(
                    Scatterer.of(-3.0),
                    Segment(lc / 2 + dlc / 2 - x),
                    Scatterer.of(zeta),
                    Segment(lc / 2 + dlc / 2 + x),
                    Scatterer.of(-3.0),
                ),
                mobile_index=2,
                k0=K0,
            )
            rep = force_with_velocity(solve_dynamic(chain, pump),
                                      chain.mobile.pol, K0)
            oracle = fd_friction(chain, pump, v_over_c=1e-9)
            err = abs(rep.friction - oracle) / max(abs(oracle), 1e-30)
            worst = max(worst, err)
            assert err < 1e-3, f"zeta={zeta}, x={x}, dlc={dlc}: err {err:.2e}"
            n_checked += 1
        elapsed = time.perf_counter() - t0
        assert n_checked >= 100
        assert elapsed < 120
        ok = True
    finally:
        report(5, "closed form vs sideband oracle < 1e-3", ok,
               f"120 configs, worst rel err {worst:.2e}")


def test_criterion_6_free_mirror_limits():
    """Free scatterer: F0 = 2 hbar k0 Phi z^2/(1+z^2) and
    dF/dv = -4 hbar k0 Phi z^2/(1+z^2)/c, both to 1e-10 relative."""
    ok = False
    worst = 0.0
    try:
        pump = PumpSpec.one_sided(1.0, LAM)
        flux = pump.photon_flux
        for zeta in (-0.3, -1.0, -2.0, -10.0, -100.0):
            chain = Chain(elements=(Scatterer.of(zeta),), mobile_index=0, k0=K0)
            rep = force_with_velocity(solve_dynamic(chain, pump),
                                      chain.mobile.pol, K0)
            factor = zeta**2 / (1 + zeta**2)
            f0_expect = 2 * HBAR * K0 * flux * factor
            dfdv_expect = -4 * HBAR * K0 * flux * factor / C_LIGHT
            e1 = abs(rep.F0 - f0_expect) / abs(f0_expect)
            e2 = abs(rep.friction - dfdv_expect) / abs(dfdv_expect)
            worst = max(worst, e1, e2)
            assert e1 < 1e-10 and e2 < 1e-10
        ok = True
    finally:
        report(6, "free-mirror force and friction limits at 1e-10", ok,
               f"worst rel err {worst:.2e}")


def test_criterion_7_quantum_bookkeeping(default_scan):
    """Commutator preservation at 1e-10; D >= 0 and kBT > 0 on the scan."""
    ok = False
    try:
        comm = OperatorFields.commutator
        rng = np.random.default_rng(11)

        def random_chain(absorbing: bool) -> Chain:
            def z():
                im = rng.uniform(0.05, 0.4) if absorbing else 0.0
                return complex(rng.uniform(-6, -0.3), im)

            return Chain(
                elements=(
                    Scatterer.of(z()),
                    Segment(rng.uniform(1e-4, 5e-3)),
                    Scatterer.of(z() if absorbing else complex(rng.uniform(-6, -0.3))),
                    Segment(rng.uniform(1e-4, 5e-3)),
                    Scatterer.of(z()),
                ),
                mobile_index=2,
                k0=K0,
            )

        for _ in range(10):
            ops = operator_fields(random_chain(False))
            gram = np.array([ops.out_left_vec, ops.out_right_vec])
            gram = gram @ gram.conj().T
            assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        for _ in range(10):
            ops = operator_fields(attach_loss_modes(random_chain(True)))
            gram = np.array([ops.out_left_vec, ops.out_right_vec])
            gram = gram @ gram.conj().T
            assert np.max(np.abs(gram - np.eye(2))) < 1e-10

        grid = default_scan.grid
        for i, j in np.argwhere(~(default_scan.D >= 0)):  # NaN fails too
            raise AssertionError(f"D < 0 at ({grid.x_values[i]}, {grid.dlc_values[j]})")
        cooling = default_scan.dFdv < 0
        assert (default_scan.kBT[cooling] > 0).all()  # NaN fails too
        n_cool = int(cooling.sum())
        assert n_cool > 1000  # cooling regions exist all over the map
        ok = True
    finally:
        report(7, "commutators to 1e-10; D >= 0; kBT > 0 in cooling", ok,
               f"{n_cool} cooling points")


def test_criterion_8_model_breakdown_trend():
    """Coupled-cavities model: discrepancy strictly decreases with |zeta|;
    sign agreement >= 95% near resonance at zeta = -10."""
    ok = False
    summaries = {}
    census = None
    try:
        base = MimConfig(cavity_length=5e-3, mirror_zeta=-3.0)
        for zeta in (-1.0, -2.0, -5.0, -10.0):
            config = base.replace(membrane_zeta=zeta)
            cal = calibrate_coupled_params(config)
            span = 0.45 * LAM / 2
            grid = ScanGrid(-LAM / 8, LAM / 8, 13,
                            cal.dlc_center - span, cal.dlc_center + span, 41)
            result = compare_models(config, grid)
            summaries[zeta] = result.summary
            if zeta == -10.0:
                w1 = cal.params.omega_prime
                kc = cal.params.kappa_c
                g = cal.params.g
                agree = total = 0
                for (i, j), f_tmm in np.ndenumerate(result.F0_tmm):
                    x, dlc = grid.x_values[i], grid.dlc_values[j]
                    if np.isnan(f_tmm) or abs(x) > LAM / 16:
                        continue
                    delta = config.omega0 * (dlc - cal.dlc_center) / config.cavity_length
                    split = np.sqrt(g**2 + (w1 * x) ** 2)
                    if min(abs(delta - split), abs(delta + split)) >= 3 * kc:
                        continue
                    total += 1
                    agree += int(np.sign(f_tmm) == np.sign(result.F0_coupled[i, j]))
                census = (agree, total)
        vals = [summaries[z] for z in (-1.0, -2.0, -5.0, -10.0)]
        assert vals[0] > vals[1] > vals[2] > vals[3], summaries
        assert summaries[-1.0] > 3 * summaries[-10.0]
        agree, total = census
        assert total >= 20
        assert agree / total >= 0.95
        ok = True
    finally:
        report(8, "coupled-model breakdown trend and sign census", ok,
               f"summaries {summaries}, census {census}")


def test_criterion_9_scan_determinism(tmp_path):
    """Identical scan configs give byte-identical CSV for any worker count."""
    ok = False
    try:
        cfg_text = """\
[run]
schema_version = 1
[pump]
wavelength = 1064nm
power = 1W
[mim]
cavity_length = 5mm
membrane_zeta = -1.0
mirror_zeta = -3.0
[grid]
x_start = -532nm
x_stop = 532nm
x_count = 21
dlc_start = -266nm
dlc_stop = 266nm
dlc_count = 21
"""
        path = tmp_path / "scan.ini"
        path.write_text(cfg_text)
        digests = []
        for workers, name in ((1, "a.csv"), (4, "b.csv")):
            out = str(tmp_path / name)
            code = cli.run(["scan", "--config", str(path), "--out", out,
                            "--workers", str(workers)])
            assert code == 0
            digests.append(hashlib.sha256(open(out, "rb").read()).hexdigest())
        assert digests[0] == digests[1]
        ok = True
    finally:
        report(9, "byte-identical scan CSV across worker counts", ok,
               f"sha256 {digests[0][:16]}...")
