"""Shared oracle machinery for the test suite.

The oracles here deliberately avoid the package's first-order jets and
closed-form solve: static compositions are plain numpy matrix products,
k-derivatives are central finite differences over static solves at shifted
wavenumbers (the reflected components of a slowly moving scatterer are
Doppler sidebands at k0(1 +/- 2v/c), so differencing static solutions at
those wavenumbers reproduces the first-order fields), and the first-order
amplitudes follow the explicit bracketed closed form written out
term by term.
"""

from __future__ import annotations

import contextlib
import signal

import numpy as np
from scipy.constants import c as C_LIGHT, hbar as HBAR

from tmmcavity.elements import Chain, Scatterer, Segment


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


def fd_first_order_fields(chain: Chain, pump, v_over_c: float = 1e-9) -> dict:
    """First-order fields by finite differences over static solves.

    Implements the closed-form first-order amplitudes with every
    k-derivative taken as a central difference between static compositions
    at the sideband wavenumbers k0(1 +/- 2 v/c).  Completely independent of
    the package's analytic-derivative path.
    """
    k0 = chain.k0
    dk = 2.0 * v_over_c * k0
    zm = chain.mobile.pol.zeta
    left = chain.elements[: chain.mobile_index]
    right = chain.elements[chain.mobile_index + 1 :]
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def m1(k):
        return compose(left, k)

    def m2(k):
        return compose(right, k)

    def ms():
        return np.array([[1 + 1j * zm, 1j * zm], [-1j * zm, 1 - 1j * zm]])

    def composed(k):
        return m1(k) @ ms() @ m2(k)

    def deriv(fn):
        return (fn(k0 + dk) - fn(k0 - dk)) / (2 * dk)

    def xb(k):
        # first-order scalar coefficient functions: 2 i z k (M1 sx M2')
        dm2 = (m2(k + dk) - m2(k - dk)) / (2 * dk)
        return 2j * zm * k * (m1(k) @ sx @ dm2)

    def xc(k):
        # first-order d/dk coefficient functions: 2 i z k (M1 sx M2)
        return 2j * zm * k * (m1(k) @ sx @ m2(k))

    def mu(k):
        return np.linalg.inv(m1(k))

    m0 = composed(k0)
    g0, a0 = m0[0, 0], m0[0, 1]
    d0, b0 = m0[1, 0], m0[1, 1]
    mu0 = mu(k0)
    B0, C0 = complex(pump.B0), complex(pump.C0)

    # zeroth order
    dr0 = (B0 - d0 * C0) / b0
    al0 = g0 * C0 + a0 * dr0
    A0 = mu0[0, 0] * al0 + mu0[0, 1] * B0
    B0f = mu0[1, 0] * al0 + mu0[1, 1] * B0

    # first order, bracketed closed form with finite-difference derivatives
    xb0 = xb(k0)
    xc0 = xc(k0)

    def bracket_pump(mu_row):
        """(v/c) coefficient of the left-pump bracket for one mu row."""
        def inner(k):
            mm = mu(k)
            mc = composed(k)
            return (mm[mu_row, 0] / mc[1, 1]) * (
                xc(k)[0, 1] * mc[1, 1] - mc[0, 1] * xc(k)[1, 1]
            )
        term1 = (mu0[mu_row, 0] / b0**2) * (xb0[0, 1] * b0 - a0 * xb0[1, 1])
        term2 = -(1.0 / b0) * deriv(inner)
        return term1 + term2

    def bracket_right(mu_row):
        """(v/c) coefficient of the right-pump bracket for one mu row."""
        def inner_gd(k):
            mm = mu(k)
            mc = composed(k)
            return (mm[mu_row, 0] / mc[1, 1]) * (
                mc[1, 1] * xc(k)[0, 0] - mc[0, 1] * xc(k)[1, 0]
            )

        def inner_ab(k):
            mm = mu(k)
            mc = composed(k)
            return (mm[mu_row, 0] / mc[1, 1]) * (
                xc(k)[0, 1] * mc[1, 1] - mc[0, 1] * xc(k)[1, 1]
            )

        term1 = (mu0[mu_row, 0] / b0**2) * (
            b0**2 * xb0[0, 0]
            - a0 * b0 * xb0[1, 0]
            - (xb0[0, 1] * b0 - a0 * xb0[1, 1]) * d0
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


def fd_friction(chain: Chain, pump, v_over_c: float = 1e-9) -> float:
    """Sideband finite-difference oracle for the friction coefficient dF/dv."""
    fields = fd_first_order_fields(chain, pump, v_over_c)
    return flux_force_first_order(fields, chain.k0) / C_LIGHT


def random_static_vomatrix(rng, n_terms: int = 2):
    """Random static jets with k-dependent phase entries.

    Returns `jet(k)`, the VOMatrix at k with its analytic k-derivative, and
    `plain(k)`, the same matrix as a plain numpy array for cross-checks.
    Entry (i, j) is sum_t coeff_t exp(i k d_t).
    """
    from tmmcavity.opalg import VOMatrix

    coeffs = rng.normal(size=(2, 2, n_terms)) + 1j * rng.normal(size=(2, 2, n_terms))
    phases = rng.uniform(-2e-3, 2e-3, size=(2, 2, n_terms))

    def plain(k):
        return np.sum(coeffs * np.exp(1j * k * phases), axis=-1)

    def jet(k):
        terms = coeffs * np.exp(1j * k * phases)
        return VOMatrix(k, terms.sum(axis=-1), (1j * phases * terms).sum(axis=-1))

    return jet, plain


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
