"""Shared oracle machinery for the test suite.

The oracles here deliberately avoid the package's composed operator and
closed-form solve: static compositions are plain 2x2 products written out
on tuples, k-derivatives are central finite differences over static solves
at shifted wavenumbers (the reflected components of a slowly moving
scatterer are Doppler sidebands at k0(1 +/- 2v/c), so differencing static
solutions at those wavenumbers reproduces the first-order fields), and the
first-order amplitudes follow the explicit bracketed closed form written
out term by term.  The sideband oracle runs in float64 or, for long
resonant chains, in mpmath at a chosen precision.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import signal

import mpmath
import numpy as np
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT, hbar as HBAR

import tmmcavity.mim as mim
import tmmcavity.opalg as opalg
from tmmcavity.elements import Chain, PumpSpec, Scatterer, Segment


def static_matrix(el, k: float) -> np.ndarray:
    if isinstance(el, Scatterer):
        z = el.pol.zeta
        return np.array([[1 + 1j * z, 1j * z], [-1j * z, 1 - 1j * z]])
    return np.array(
        [[np.exp(1j * k * el.length), 0.0], [0.0, np.exp(-1j * k * el.length)]]
    )


def compose(elements, k: float) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for el in elements:
        m = m @ static_matrix(el, k)
    return m


def reversed_chain(chain: Chain) -> Chain:
    """The chain seen from its other end: its left pump is a right pump of
    `chain`, its scatterer's velocity -v."""
    return Chain(chain.elements[::-1], len(chain.elements) - 1 - chain.mobile_index, chain.k0)


def side_growth(chain: Chain) -> float:
    """|M1| |M2|, the largest entries of the transfer matrices of the two
    sides of the mobile scatterer: the factor by which the closed-form
    solves amplify float64 rounding (~1/|t| of a side in a stop band)."""
    k, i = chain.k0, chain.mobile_index
    return float(np.abs(compose(chain.elements[:i], k)).max()
                 * np.abs(compose(chain.elements[i + 1:], k)).max())


@st.composite
def random_chains(draw):
    """A chain of 2-21 scatterers (|zeta| <= 10, some absorbing) and the
    segments between them, a mobile scatterer and a 1 W, 1064 nm pump from
    either side."""
    n = draw(st.integers(2, 21))
    elements = []
    for i in range(n):
        if i:
            elements.append(Segment(draw(st.floats(1e-4, 5e-3))))
        re = draw(st.floats(-10.0, 10.0))
        im = draw(st.one_of(st.just(0.0), st.floats(0.0, (100.0 - re * re) ** 0.5)))
        elements.append(Scatterer.of(complex(re, im)))
    mobile = 2 * draw(st.integers(0, n - 1))
    side = draw(st.sampled_from(["left", "right"]))
    return Chain(tuple(elements), mobile, 2 * math.pi / 1.064e-6), PumpSpec.one_sided(
        1.0, 1.064e-6, side)


# 2x2 matrices as tuples (m11, m12, m21, m22) of Python complex or mpmath
# numbers, so one oracle serves both precisions


def _mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _inv(m):
    det = m[0] * m[3] - m[1] * m[2]
    return (m[3] / det, -m[1] / det, -m[2] / det, m[0] / det)


def _scale(c, m):
    return tuple(c * v for v in m)


class _Float64:
    num = complex
    real = float

    @staticmethod
    def expj(x):
        return cmath.exp(1j * x)


class _MpMath:
    num = mpmath.mpc
    real = mpmath.mpf
    expj = staticmethod(mpmath.expj)


def fd_first_order_fields(chain: Chain, pump, v_over_c: float = 1e-9,
                          dps: int | None = None) -> dict:
    """First-order fields by finite differences over static solves.

    Implements the closed-form first-order amplitudes with every
    k-derivative taken as a central difference between static compositions
    at the sideband wavenumbers k0(1 +/- 2 v/c).  Completely independent of
    the package's analytic-derivative path.

    With `dps` None the arithmetic is float64.  With `dps` digits it is
    mpmath: then a step of v/c ~ 1e-20 leaves neither step truncation nor
    roundoff, which float64 at v/c = 1e-9 suffers on long chains with
    narrow resonances and deep stop bands.
    """
    if dps is None:
        return _fd_fields(chain, pump, v_over_c, _Float64)
    with mpmath.workdps(dps):
        fields = _fd_fields(chain, pump, v_over_c, _MpMath)
        return {name: complex(v) for name, v in fields.items()}


def _fd_fields(chain: Chain, pump, v_over_c, ar) -> dict:
    k0 = ar.real(chain.k0)
    dk = 2 * ar.real(v_over_c) * k0
    zm = ar.num(chain.mobile.pol.zeta)
    left = chain.elements[: chain.mobile_index]
    right = chain.elements[chain.mobile_index + 1 :]
    sx = (0, 1, 1, 0)
    ms = (1 + 1j * zm, 1j * zm, -1j * zm, 1 - 1j * zm)

    def element(el, k):
        if isinstance(el, Scatterer):
            z = ar.num(el.pol.zeta)
            return (1 + 1j * z, 1j * z, -1j * z, 1 - 1j * z)
        kd = k * ar.real(el.length)
        return (ar.expj(kd), 0, 0, ar.expj(-kd))

    def product(elements, k):
        m = (1, 0, 0, 1)
        for el in elements:
            m = _mul(m, element(el, k))
        return m

    # every derivative re-reads the sides at the same few wavenumbers
    @functools.cache
    def m1(k):
        return product(left, k)

    @functools.cache
    def m2(k):
        return product(right, k)

    def composed(k):
        return _mul(_mul(m1(k), ms), m2(k))

    def deriv(fn):
        return (fn(k0 + dk) - fn(k0 - dk)) / (2 * dk)

    def xb(k):
        # first-order scalar coefficient functions: 2 i z k (M1 sx M2')
        plus, minus = m2(k + dk), m2(k - dk)
        dm2 = tuple((p - q) / (2 * dk) for p, q in zip(plus, minus))
        return _scale(2j * zm * k, _mul(_mul(m1(k), sx), dm2))

    def xc(k):
        # first-order d/dk coefficient functions: 2 i z k (M1 sx M2)
        return _scale(2j * zm * k, _mul(_mul(m1(k), sx), m2(k)))

    def mu(k):
        return _inv(m1(k))

    g0, a0, d0, b0 = composed(k0)
    mu0 = mu(k0)
    B0, C0 = ar.num(pump.B0), ar.num(pump.C0)

    # zeroth order
    dr0 = (B0 - d0 * C0) / b0
    al0 = g0 * C0 + a0 * dr0
    A0 = mu0[0] * al0 + mu0[1] * B0
    B0f = mu0[2] * al0 + mu0[3] * B0

    # first order, bracketed closed form with finite-difference derivatives
    xb0 = xb(k0)

    def bracket_pump(row):
        """(v/c) coefficient of the left-pump bracket for one mu row."""
        def inner(k):
            mm, mc, xck = mu(k), composed(k), xc(k)
            return (mm[2 * row] / mc[3]) * (xck[1] * mc[3] - mc[1] * xck[3])
        term1 = (mu0[2 * row] / b0**2) * (xb0[1] * b0 - a0 * xb0[3])
        term2 = -(1 / b0) * deriv(inner)
        return term1 + term2

    def bracket_right(row):
        """(v/c) coefficient of the right-pump bracket for one mu row."""
        def inner_gd(k):
            mm, mc, xck = mu(k), composed(k), xc(k)
            return (mm[2 * row] / mc[3]) * (mc[3] * xck[0] - mc[1] * xck[2])

        def inner_ab(k):
            mm, mc, xck = mu(k), composed(k), xc(k)
            return (mm[2 * row] / mc[3]) * (xck[1] * mc[3] - mc[1] * xck[3])

        term1 = (mu0[2 * row] / b0**2) * (
            b0**2 * xb0[0]
            - a0 * b0 * xb0[2]
            - (xb0[1] * b0 - a0 * xb0[3]) * d0
        )
        term2 = -deriv(inner_gd)
        term3 = (d0 / b0) * deriv(inner_ab)
        return term1 + term2 + term3

    A1 = bracket_pump(0) * B0 + bracket_right(0) * C0
    B1 = bracket_pump(1) * B0 + bracket_right(1) * C0

    C0f = (1 - 1j * zm) * A0 - 1j * zm * B0f
    D0f = 1j * zm * A0 + (1 + 1j * zm) * B0f
    C1 = (1 - 1j * zm) * A1 - 1j * zm * B1 + 2j * zm * B0f
    D1 = 1j * zm * A1 + (1 + 1j * zm) * B1 + 2j * zm * A0

    return dict(A0=A0, A1=A1, B0f=B0f, B1=B1, C0f=C0f, C1=C1, D0f=D0f, D1=D1)


def mp_static_fields(chain: Chain, pump, dps: int = 50) -> dict:
    """Static fields A0, B0f, C0f, D0f, out_left and out_right of `chain`
    under `pump`, composed and solved in mpmath at `dps` digits with the
    textbook formulas (out_left = g C0 + a out_right), whose cancellation
    the extra digits absorb."""
    with mpmath.workdps(dps):
        fields = _mp_static_fields(chain, mpmath.mpc(pump.B0), mpmath.mpc(pump.C0))
        return {name: complex(v) for name, v in fields.items()}


def _mp_element(el, k0):
    """The transfer matrix of one element as mpmath numbers."""
    if isinstance(el, Scatterer):
        z = mpmath.mpc(el.pol.zeta)
        return (1 + 1j * z, 1j * z, -1j * z, 1 - 1j * z)
    kd = mpmath.mpf(k0) * mpmath.mpf(el.length)
    return (mpmath.expj(kd), 0, 0, mpmath.expj(-kd))


def _mp_static_fields(chain: Chain, B0, C0) -> dict:
    """`mp_static_fields` as mpmath numbers, at the working precision."""
    zm = mpmath.mpc(chain.mobile.pol.zeta)
    m1 = m = (1, 0, 0, 1)
    for i, el in enumerate(chain.elements):
        m = _mul(m, _mp_element(el, chain.k0))
        if i + 1 == chain.mobile_index:
            m1 = m
    d_out = (B0 - m[2] * C0) / m[3]
    a_out = m[0] * C0 + m[1] * d_out
    mu = _inv(m1)
    A0 = mu[0] * a_out + mu[1] * B0
    B0f = mu[2] * a_out + mu[3] * B0
    return dict(A0=A0, B0f=B0f, C0f=(1 - 1j * zm) * A0 - 1j * zm * B0f,
                D0f=1j * zm * A0 + (1 + 1j * zm) * B0f, out_left=a_out, out_right=d_out)


def mp_diffusion(chain: Chain, pump, dps: int = 50) -> float:
    """Momentum diffusion in mpmath at `dps` digits: the printed commutator
    sum (`printed_sum`) over the two unit-pump columns, every field composed
    and solved as in `mp_static_fields`, and one loss column
    (`_mp_loss_column`) per absorbing scatterer."""
    names = ("A0", "B0f", "C0f", "D0f")
    with mpmath.workdps(dps):
        f = _mp_static_fields(chain, mpmath.mpc(pump.B0), mpmath.mpc(pump.C0))
        columns = [[u[n] for n in names] for u in (
            _mp_static_fields(chain, mpmath.mpc(b0), mpmath.mpc(c0)) for b0, c0 in ((1, 0), (0, 1)))]
        mats = [_mp_element(el, chain.k0) for el in chain.elements]
        # prefix[i] composes the elements left of interface i, suffix[i] those right of it
        prefix, suffix = [(1, 0, 0, 1)], [(1, 0, 0, 1)]
        for m, w in zip(mats, mats[::-1]):
            prefix.append(_mul(prefix[-1], m))
            suffix.insert(0, _mul(w, suffix[0]))
        columns += [_mp_loss_column(chain, j, prefix, suffix)
                    for j, el in enumerate(chain.elements)
                    if isinstance(el, Scatterer) and el.pol.absorptive]
        total = printed_sum(*(f[n] for n in names), *zip(*columns),
                            lambda x, y: mpmath.fsum(u * mpmath.conj(w) for u, w in zip(x, y)),
                            mpmath.conj)
        return float((HBAR * chain.k0) ** 2 * total)


def _mp_loss_column(chain: Chain, j: int, prefix: list, suffix: list) -> list:
    """(A, B, C, D) at the mobile scatterer under the unit vacuum of
    absorbing scatterer j alone, at the working precision.

    The source is the one `noise.operator_fields` emits, kappa into both
    outgoing directions, in transfer form v_j = M_j v_(j+1) + s with
    s = (kappa (1 - r/t), -kappa/t) and kappa^2 = (1 - |r+t|^2)/2.  No
    light enters from outside, so the far-left pair is (a, 0) and the
    far-right pair (0, d): each side of the source carries its output
    through its own transfer matrices, and the source relation fixes a
    and d.  Each pair is (leftward, rightward); `prefix[i]` and
    `suffix[i]` compose the elements left and right of interface i.
    """
    im = chain.mobile_index
    z = mpmath.mpc(chain.elements[j].pol.zeta)
    r, t = 1j * z / (1 - 1j * z), 1 / (1 - 1j * z)
    kappa = mpmath.sqrt((1 - abs(r + t) ** 2) / 2)
    s = (kappa * (1 - r / t), -kappa / t)
    # v_j = a p and v_(j+1) = d q, p the first column of the left side's
    # inverse and q the second of M_j times the right side
    left, right = _inv(prefix[j]), suffix[j]
    p, q = (left[0], left[2]), (right[1], right[3])
    det = q[0] * p[1] - p[0] * q[1]
    a, d = (q[0] * s[1] - q[1] * s[0]) / det, (p[0] * s[1] - p[1] * s[0]) / det

    def pair(i):
        """v_i, read from the side of the source that holds interface i."""
        if i <= j:
            m = _inv(prefix[i])
            return m[0] * a, m[2] * a
        return suffix[i][1] * d, suffix[i][3] * d

    return [*pair(im), *pair(im + 1)]


def printed_sum(a0, b0, c0, d0, av, bv, cv, dv, comm, conj=np.conj):
    """The diffusion bracket as printed in `noise.diffusion`: four diagonal
    commutator terms and 2 Re of six signed cross terms, with
    [X, Y^dag] = comm(x_vec, y_vec); D = (hbar k0)^2 times this."""
    total = (
        abs(a0) ** 2 * comm(av, av).real
        + abs(b0) ** 2 * comm(bv, bv).real
        + abs(c0) ** 2 * comm(cv, cv).real
        + abs(d0) ** 2 * comm(dv, dv).real
    )
    cross = (
        conj(a0) * b0 * comm(av, bv)
        - conj(a0) * c0 * comm(av, cv)
        - conj(a0) * d0 * comm(av, dv)
        - conj(b0) * c0 * comm(bv, cv)
        - conj(b0) * d0 * comm(bv, dv)
        + conj(c0) * d0 * comm(cv, dv)
    )
    return total + 2 * cross.real


def printed_sum_diffusion(fields, ops, k0: float, dps: int | None = None) -> float:
    """Oracle for `noise.diffusion`: the printed commutator sum over the
    operator vectors of `noise.operator_fields`, term by term.

    In float64 with `dps` None.  With `dps` digits the same float inputs go
    through mpmath, so the cancellation between the ten terms (D scales
    like zeta^2 while its terms do not) costs no digits."""
    from tmmcavity.noise import OperatorFields

    amps = (fields.A0, fields.B0f, fields.C0f, fields.D0f)
    vecs = (ops.a_vec, ops.b_vec, ops.c_vec, ops.d_vec)
    if dps is None:
        total = printed_sum(*amps, *vecs, OperatorFields.commutator)
        return (HBAR * k0) ** 2 * float(total)
    with mpmath.workdps(dps):
        total = printed_sum(*(mpmath.mpc(complex(v)) for v in amps),
                            *([mpmath.mpc(complex(v)) for v in vec] for vec in vecs),
                            lambda x, y: mpmath.fsum(u * mpmath.conj(w) for u, w in zip(x, y)),
                            mpmath.conj)
        return float((HBAR * k0) ** 2 * total)


def flux_force_first_order(fields: dict, k0: float) -> float:
    """F1 from the exact momentum-flux balance, first-order expansion.

    F = hbar k0 (|A|^2 + |B|^2 - |C|^2 - |D|^2) for envelope-normalised
    amplitudes; the (v/c) coefficient is 2 hbar k0 Re{A0 A1* + B0 B1*
    - C0 C1* - D0 D1*}.
    """
    t = (
        (fields["A0"] * np.conj(fields["A1"])).real
        + (fields["B0f"] * np.conj(fields["B1"])).real
        - (fields["C0f"] * np.conj(fields["C1"])).real
        - (fields["D0f"] * np.conj(fields["D1"])).real
    )
    return 2 * HBAR * k0 * t


def fd_friction(chain: Chain, pump, v_over_c: float = 1e-9,
                dps: int | None = None) -> float:
    """Sideband finite-difference oracle for the friction coefficient dF/dv
    (float64, or mpmath at `dps` digits; see `fd_first_order_fields`)."""
    fields = fd_first_order_fields(chain, pump, v_over_c, dps)
    return flux_force_first_order(fields, chain.k0) / C_LIGHT


def bare_intensity(config, dlc: float):
    """|B0f|^2 at the membrane plane of the bare MIM chain (a transparent
    membrane at x = 0) of a `MimConfig` under a unit pump, in 40-digit
    mpmath, with k = 2 pi / lambda and the mirror gap Lc + dlc formed
    exactly."""
    with mpmath.workdps(40):
        k = 2 * mpmath.pi / mpmath.mpf(config.wavelength)
        z = mpmath.mpf(config.mirror_zeta)
        mirror = (1 + 1j * z, 1j * z, -1j * z, 1 - 1j * z)
        half_gap = (mpmath.mpf(config.cavity_length) + mpmath.mpf(dlc)) / 2
        prop = (mpmath.expj(k * half_gap), 0, 0, mpmath.expj(-k * half_gap))
        right = _mul(prop, mirror)  # membrane plane to the right face
        m = _mul(_mul(mirror, prop), right)
        b0, c0 = (1, 0) if config.pump_side == "left" else (0, 1)
        out_right = (b0 - m[2] * c0) / m[3]
        return abs(right[2] * c0 + right[3] * out_right) ** 2


def matrix(entries) -> np.ndarray:
    """The 2x2 array of an entry tuple of the kernel: None (a zero matrix
    or entry) reads 0, a one-element array its element."""
    if entries is None:
        return np.zeros((2, 2), dtype=complex)
    return np.array([0.0 if e is None else np.ravel(e)[0] for e in entries],
                    dtype=complex).reshape(2, 2)


def random_side(rng, n_terms: int = 2):
    """A random k-dependent matrix standing for one side's product.

    Returns `side(k)`, the pair (m, m') of entry tuples at k with the
    analytic k-derivative, and `plain(k)`, the same matrix as a plain numpy
    array for cross-checks.  Entry (i, j) is sum_t coeff_t exp(i k d_t).
    """
    coeffs = rng.normal(size=(2, 2, n_terms)) + 1j * rng.normal(size=(2, 2, n_terms))
    phases = rng.uniform(-2e-3, 2e-3, size=(2, 2, n_terms))

    def plain(k):
        return np.sum(coeffs * np.exp(1j * k * phases), axis=-1)

    def side(k):
        terms = coeffs * np.exp(1j * k * phases)
        return (tuple(terms.sum(axis=-1).ravel()),
                tuple((1j * phases * terms).sum(axis=-1).ravel()))

    return side, plain


@contextlib.contextmanager
def wall_clock_limit(seconds: float):
    """Fail the enclosed block with TimeoutError after `seconds` of wall time.

    Uses SIGALRM, so it only works in the main thread on POSIX systems.
    """
    def expire(signum, frame):
        raise TimeoutError(f"exceeded the {seconds} s wall-clock limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def singular_column(monkeypatch, x_target: float):
    """Mark every point at one x singular in the kernel solves of MIM
    chains pumped from the left.

    `scan`, `compare_models` and `point_quantities` all reach the kernel
    through `opalg._pump_solution`, so each must turn the kernel's verdict
    into missing values although its numbers at those points stay finite.
    """
    real = opalg._solve_left_pump

    def poisoned(left, z, right, k0, B0, first_order=False):
        solution = real(left, z, right, k0, B0, first_order)
        hit = np.abs((right[0] - left[1]) / 2 - x_target) < 1e-15
        return solution._replace(singular=solution.singular | hit)

    monkeypatch.setattr(opalg, "_solve_left_pump", poisoned)


def scalar_probe_center(config) -> float:
    """The x = 0 degeneracy point that `calibrate_coupled_params` picks,
    probed with scalar `solve_static` calls: of the two lambda/2-spaced
    copies of the midpoint of the analytic branches, the one with the
    larger |B0f|^2 + |D0f|^2 summed over the two points one coupling
    split away, a singular solve counting 0.  Responses within 1e-9 of
    each other, relative, are a tie, which the copy nearer dlc = 0 wins."""
    from tmmcavity.errors import SingularSolveError
    from tmmcavity.statics import solve_static

    anchor, _fwhm = mim.bare_resonance(config)
    bp, bm = mim.overlay_base_curves(config, [0.0], anchor=anchor)
    lam = config.wavelength
    mid = (bp[0] + bm[0]) / 2
    cand = [(mid + lam / 2) % lam - lam / 2]
    cand.append(cand[0] + (lam / 2 if cand[0] < 0 else -lam / 2))
    g = C_LIGHT * (1.0 / math.sqrt(1.0 + config.membrane_zeta**2)) / config.cavity_length
    split_dlc = g * config.cavity_length / config.omega0
    pump = mim.pump_for(config)

    def response(center: float) -> float:
        total = 0.0
        for s in (-1.0, +1.0):
            try:
                fields = solve_static(mim.build_mim(config, 0.0, center + s * split_dlc), pump)
                total += abs(fields.B0f) ** 2 + abs(fields.D0f) ** 2
            except SingularSolveError:
                pass
        return total

    responses = [response(c) for c in cand]
    if abs(responses[0] - responses[1]) <= 1e-9 * max(responses):
        return float(min(cand, key=abs))  # a tie: the copy nearer dlc = 0
    return float(cand[int(responses[1] > responses[0])])


# Membrane polarisabilities of the coupled-cavities breakdown table, from
# R = zeta^2 / (1 + zeta^2) = 0.99 down to 0.04.
BREAKDOWN_ZETAS = (-10.0, -5.0, -3.0, -2.0, -1.4, -1.0, -0.7, -0.5, -0.35, -0.2)


def breakdown_case(zeta: float):
    """Criterion 8's setup for one membrane: Lc 5 mm, mirror zeta -3 and a
    13 x 41 grid around the calibrated degeneracy point.  Returns the
    config, its calibration and the grid."""
    config = mim.MimConfig(cavity_length=5e-3, mirror_zeta=-3.0, membrane_zeta=zeta)
    cal = mim.calibrate_coupled_params(config)
    lam, span = config.wavelength, 0.45 * config.wavelength / 2
    grid = mim.ScanGrid(-lam / 8, lam / 8, 13, cal.dlc_center - span, cal.dlc_center + span, 41)
    return config, cal, grid


def breakdown_table() -> str:
    """The README's table of the membrane reflectivity R against the
    `compare` summary discrepancy, each to 2 significant digits."""
    reflectivity, summary = ["R"], ["summary"]
    for zeta in BREAKDOWN_ZETAS:
        config, _cal, grid = breakdown_case(zeta)
        reflectivity.append(f"{zeta ** 2 / (1 + zeta ** 2):#.2g}")
        summary.append(f"{mim.compare_models(config, grid).summary:#.2g}")
    return "\n".join(["| " + " | ".join(reflectivity) + " |",
                      "|" + "---|" * len(reflectivity),
                      "| " + " | ".join(summary) + " |"])


if __name__ == "__main__":
    # PYTHONPATH=src python tests/helpers.py
    print(breakdown_table())
