"""Emission spectra of the scattered fields via the quantum regression theorem.

The steady-state two-time correlation of an output-field operator A,

    g(tau) = <A^dag(tau) A(0)> = Tr{ A^dag unvec( exp(L tau) vec(A rho_ss) ) },

splits into an elastic part |<A>_ss|^2 (a delta peak at the drive frequency,
kept as a scalar weight) and an inelastic part whose half-sided Fourier
transform gives the continuous power spectral density

    S(omega) = (1/pi) Re int_0^inf (g(tau) - |<A>_ss|^2) e^{i omega tau} dtau.

Frequencies are offsets from the drive in rad/s. The integral has the closed
form of a resolvent of the Liouvillian,

    S(omega) = -(1/pi) Re Tr{ A^dag unvec( (L + i omega - P)^-1 dv ) },

with dv = vec(A rho_ss) - <A>_ss vec(rho_ss) and P = |vec rho_ss><vec 1|
(the pseudo-inverse method of Johansson, Nation & Nori, Comput. Phys.
Commun. 184, 1234 (2013)). It is exact for the broad bright-state background
and the narrow quasi-dark line alike.

The shifted generator L - P is the same matrix at every frequency, so it is
factored once. In the real Hermitian coordinates of the steady-state solve
(``operators.real_form``) it is a real d^2 x d^2 matrix
M = U (L - P) U^dag = V diag(lambda) V^-1, so L - P = W diag(lambda) W^-1
with W = U^dag V, and the resolvent has the pole-residue form

    x(omega) = W diag(1 / (lambda + i omega)) W^-1 dv,

a few (n_freq, d^2) matrix products for the whole grid after one
eigendecomposition, where an LU solve per frequency would factor n_freq
matrices. The eigenvector route is only conditionally stable: its error
grows with the condition number of V, which is large near an exceptional
point of L. So one step of iterative refinement follows, through the same
factors, against the exact residual r = dv - (L - P + i omega) x. It is
formed with L - P itself, not with the rounded M, so the refinement also
removes the rounding of the change of coordinates. The spectrum is refused
unless every frequency's refined normwise backward error
||r|| / (||L - P||_F ||x|| + ||dv||), the same number in either coordinates,
is at most RESOLVENT_BACKWARD_TOL. A backward-stable solve by LU reaches
about eps there.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .diode import DiodeConfig, _check_power, _drive, driven_state
from .fitting import _least_squares
from .operators import _hermitian_coordinates, real_form, vec

# Fraction of the peak below zero tolerated as rounding noise in the computed
# PSD (clipped to zero). The exact spectrum is nonnegative, so anything more
# negative means a bug.
PSD_NEGATIVE_TOL = 1e-6
# Largest refined normwise backward error of a resolvent solve that a
# spectrum accepts, about 4500 eps. On 2400 spectra of 300 drawn devices
# (delta 1e-3 to 0.3, drive 1e-4 to 10 gamma_bar) and at the single-emitter
# exceptional point it stays at or below 2.2e-16; a generator with a 3 x 3
# or 4 x 4 Jordan block, whose eigenvectors do not span, reads 0.08 to 0.85.
RESOLVENT_BACKWARD_TOL = 1e-12


class SpectrumError(RuntimeError):
    """Spectrum computation or Lorentzian fit failure."""


class LorentzianFit(NamedTuple):
    """Fitted Lorentzian a (fwhm/2)^2 / ((w-center)^2 + (fwhm/2)^2) + offset."""

    center: float
    fwhm: float
    area: float            # integral of the Lorentzian component, pi*a*fwhm/2
    peak_height: float
    offset: float
    residual_norm: float


class SpectrumResult(NamedTuple):
    """Elastic weight plus inelastic PSD on a frequency-offset grid."""

    elastic_weight: float              # photons/s
    freq_offsets: np.ndarray           # rad/s relative to the drive
    inelastic_psd: np.ndarray          # photons/s per rad/s
    fitted: LorentzianFit | None = None


# -----------------------------------------------------------------------------
#                          Resolvent spectrum
# -----------------------------------------------------------------------------

def inelastic_spectrum(lv: np.ndarray, rho_ss: np.ndarray, out_op: np.ndarray,
                       omegas) -> np.ndarray:
    """Inelastic PSD of out_op on the grid, by the module docstring's
    resolvent in its pole-residue form.

    Subtracting P makes omega = 0 solvable. Since Tr dv = 0 the solution is
    traceless, so P x = 0 and P changes no other frequency. L must preserve
    Hermiticity, as a Lindblad generator does: ``real_form`` raises
    ValueError otherwise. One ``np.linalg.eig`` and one ``inv`` of the
    d^2 x d^2 generator serve the whole grid; the solve and its refinement
    are O(n_freq d^4) in matrix products. Raises SpectrumError where the
    refined backward error exceeds RESOLVENT_BACKWARD_TOL, or is not finite
    (a pole on the grid, or a generator whose eigenvectors do not span).
    """
    omegas = np.asarray(omegas, dtype=float)
    out_op = np.asarray(out_op, dtype=complex)
    rho_ss = np.asarray(rho_ss, dtype=complex)
    rho_v = vec(rho_ss)
    dv = vec(out_op @ rho_ss) - np.trace(out_op @ rho_ss) * rho_v
    shifted = lv - np.outer(rho_v, vec(np.eye(rho_ss.shape[0])))
    # Eigenvectors of the real form U (L - P) U^dag, taken back to column
    # stacking: L - P = W diag(lam) W^-1 with W = U^dag V.
    u = _hermitian_coordinates(rho_ss.shape[0])
    lam, v = np.linalg.eig(real_form(shifted))
    w, w_inv = u.conj().T @ v, np.linalg.inv(v) @ u
    shift = 1j * omegas[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        poles = lam + shift                        # (n_freq, d^2)
        x = ((w_inv @ dv) / poles) @ w.T
        r = dv - x @ shifted.T - shift * x
        x += ((r @ w_inv.T) / poles) @ w.T
        r = dv - x @ shifted.T - shift * x
        r_norm = np.linalg.norm(r, axis=1)
        scale = (np.linalg.norm(shifted) * np.linalg.norm(x, axis=1)
                 + np.linalg.norm(dv))
    bad = ~(r_norm <= RESOLVENT_BACKWARD_TOL * scale)
    if np.any(bad):
        k = np.flatnonzero(bad)[0]
        raise SpectrumError(
            f"resolvent backward error {r_norm[k] / scale[k]:.3e} exceeds "
            f"{RESOLVENT_BACKWARD_TOL:.0e} at omega = {omegas[k]:.6g}: the "
            "generator is too close to defective, or has a pole on the grid")
    return -(x @ vec(out_op).conj()).real / np.pi


# -----------------------------------------------------------------------------
#                          Diode field spectra
# -----------------------------------------------------------------------------

def linewidth_estimate(c: DiodeConfig) -> float:
    """Decay-rate scale of the narrow spectral feature, for grid construction.

    3 gamma_D + gamma_nr + 2 gamma_phi with the losses averaged over the two
    qubits, floored at 1e-6 gamma_bar. It sets the CLI spectrum grid, whose
    span_linewidths counts units of twice this value, and psd's minimum-span
    check. It is a fixed grid scale, not the line's width, which
    predicted_linewidth gives. gamma_D = delta^2 gbar / 2 is computed here,
    not by ``dark_bright_rates``, so that a device outside the perturbative
    regime warns once, when it is made.
    """
    gamma_d = 0.5 * c.delta * c.delta * c.gamma_bar
    gamma_nr = 0.5 * (c.q1.gamma_nr + c.q2.gamma_nr)
    gamma_phi = 0.5 * (c.q1.gamma_phi + c.q2.gamma_phi)
    est = 3.0 * gamma_d + gamma_nr + 2.0 * gamma_phi
    return max(est, 1e-6 * c.gamma_bar)


def psd(c: DiodeConfig, direction: str, port: str, power: float,
        freq_offsets, info: dict | None = None) -> SpectrumResult:
    """Power spectral density of a diode output field on the given grid.

    ``direction`` is forward|reverse (which side is driven, at photon flux
    ``power``), ``port`` is transmitted|reflected. The grid must be finite
    and symmetric around zero and span at least six expected linewidths of
    the narrow feature. The steady state and the model are the
    ``driven_state`` of a drive from that side at that power: the state is
    the ``power_sweep`` state of that side, and the spectrum's L and output
    field are the ``model`` the state solves. A failed solve raises its
    SolverError. If ``info`` is a dict, the solve's diagnostics are set
    in it as that ``power_sweep`` sets them.
    """
    if port not in ("transmitted", "reflected"):
        raise ValueError(f"unknown port {port!r}")
    _check_power(power)
    omegas = np.asarray(freq_offsets, dtype=float)
    if not np.all(np.isfinite(omegas)):
        raise ValueError("frequency grid must be finite")
    if omegas.size < 8:
        raise ValueError("frequency grid too small")
    if np.max(np.abs(omegas + omegas[::-1])) > 1e-9 * np.max(np.abs(omegas)):
        raise ValueError("frequency grid must be symmetric around 0")
    gamma_est = linewidth_estimate(c)
    if omegas.max() - omegas.min() < 6.0 * gamma_est:
        raise ValueError("frequency grid must span at least 6 expected linewidths")

    state = driven_state(c, *_drive(direction, np.sqrt(power)), info)
    rho, (lv, a_out, b_out) = state.rho, state.model
    # A forward drive is transmitted into a_out, a reverse one into b_out.
    out_op = a_out if (direction == "forward") == (port == "transmitted") else b_out
    elastic = float(abs(np.trace(out_op @ rho)) ** 2)
    spectrum = inelastic_spectrum(lv, rho, out_op, omegas)

    peak = max(spectrum.max(), 0.0)
    floor = -PSD_NEGATIVE_TOL * peak
    if np.any(spectrum < floor):
        raise SpectrumError(
            f"PSD has significantly negative values (min {spectrum.min():.3e} "
            f"vs peak {peak:.3e}); the exact spectrum cannot be negative")
    spectrum = np.where(spectrum < 0.0, 0.0, spectrum)
    return SpectrumResult(elastic_weight=elastic, freq_offsets=omegas,
                          inelastic_psd=spectrum)


# -----------------------------------------------------------------------------
#                     Lorentzian fitting and prediction
# -----------------------------------------------------------------------------

def _prominent_peak_count(x: np.ndarray, min_prominence: float) -> int:
    """Number of peaks of ``x`` whose prominence is at least ``min_prominence``.

    The definitions are those of ``scipy.signal.find_peaks``. A peak is an
    interior local maximum; a flat top counts once, and only if a rise enters
    it and a fall leaves it. Its prominence is its height above the higher of
    the two minima reached on each side before a strictly higher sample (or a
    NaN) or the edge of the array.
    """
    x = np.asarray(x, dtype=float)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    v = x[keep]                    # each flat run collapsed to one sample
    peaks = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    count = 0
    for p in peaks:
        barrier = ~(v <= v[p])     # what a walk away from the peak stops at
        left = np.flatnonzero(barrier[:p])
        right = np.flatnonzero(barrier[p:])
        lo = left[-1] + 1 if left.size else 0
        hi = p + right[0] if right.size else v.size
        base = max(v[lo:p].min(), v[p + 1:hi].min())
        count += v[p] - base >= min_prominence
    return int(count)


def _unimodality_check(s: np.ndarray) -> None:
    """Reject flat or multimodal spectra before fitting.

    Peaks are counted on a lightly smoothed copy (a moving average over a
    twentieth of the grid). A peak is an interior local maximum, a flat top
    counting once, and its prominence is its height above the higher of the
    lowest points reached on each side before a higher sample or the grid
    edge. Only peaks with a prominence of at least 15% of the full span
    count, so percent-level measurement noise does not register as extra
    modes while a genuine secondary line does. No such peak means the
    maximum sits at a grid edge.
    """
    span = s.max() - s.min()
    if span <= 1e-12 * max(abs(s.max()), 1.0):
        raise SpectrumError("spectrum is flat; nothing to fit")
    window = np.ones(max(s.size // 20, 3))
    # Mean over the samples inside the grid: zero padding would pull both
    # edges down and turn a maximum at an edge into an interior peak.
    smooth = (np.convolve(s, window, mode="same")
              / np.convolve(np.ones(s.size), window, mode="same"))
    n_peaks = _prominent_peak_count(smooth, 0.15 * span)
    if n_peaks == 0:
        # The maximum sits at a grid edge; a line centered in the grid
        # always produces one interior peak.
        raise SpectrumError("spectrum has no interior peak; cannot fit "
                            "a Lorentzian")
    if n_peaks > 1:
        raise SpectrumError(
            f"spectrum is not unimodal ({n_peaks} prominent peaks); cannot "
            "fit a single Lorentzian")


def _lower_decile(y: np.ndarray) -> float:
    """np.percentile(y, 10) with its linear interpolation, which imports
    numpy.ma; the two order statistics are blended exactly as numpy does."""
    ordered = np.sort(y)
    position = (ordered.size - 1) * 0.1
    i = int(position)
    frac = position - i
    lo, hi = ordered[i], ordered[min(i + 1, ordered.size - 1)]
    if frac < 0.5:
        return float(lo + (hi - lo) * frac)
    return float(hi - (hi - lo) * (1.0 - frac))


def fit_lorentzian(s: SpectrumResult) -> LorentzianFit:
    """Least-squares Lorentzian fit of the inelastic PSD.

    Model: a (hw)^2 / ((w - center)^2 + hw^2) + offset with hw the half width.
    The fit runs on fitting's least-squares engine in units of the starting
    guesses: amplitude and offset over a0, center and half width over hw0.
    """
    w = np.asarray(s.freq_offsets, dtype=float)
    y = np.asarray(s.inelastic_psd, dtype=float)
    _unimodality_check(y)

    offset0 = _lower_decile(y)
    a0 = float(y.max() - offset0)
    center0 = float(w[np.argmax(y)])
    # Half-width seed from the half-maximum crossing distance.
    above = w[y > offset0 + 0.5 * a0]
    hw0 = 0.5 * (above.max() - above.min()) if above.size > 1 else 0.05 * (w.max() - w.min())
    wn, yn = w / hw0, y / a0

    def fun(p):
        a, center, hw, offset = p
        u = wn - center
        q = u * u + hw * hw
        jac = np.column_stack([hw * hw / q, 2.0 * a * hw * hw * u / (q * q),
                               2.0 * a * hw * u * u / (q * q), np.ones_like(u)])
        return a * hw * hw / q + offset - yn, jac

    sol = _least_squares(fun, [1.0, center0 / hw0, 1.0, offset0 / a0])
    if not sol.success:
        raise SpectrumError(f"Lorentzian fit failed: {sol.message}")
    a, center, hw, offset = sol.x * np.array([a0, hw0, hw0, a0])
    hw = abs(hw)
    return LorentzianFit(center=float(center), fwhm=float(2.0 * hw),
                         area=float(np.pi * a * hw), peak_height=float(a),
                         offset=float(offset),
                         residual_norm=float(a0 * np.linalg.norm(sol.fun)))


def predicted_linewidth(delta: float, gamma_bar: float, gamma_nr: float,
                        gamma_phi: float, gamma_exc: float = 0.0) -> float:
    """Analytic FWHM of the quasi-dark emission line (rad/s).

    Twice the rate Gamma at which the forward dark-state population relaxes,
    with gamma_D = delta^2 gamma_bar / 2 the bare decay rate of |+>:

    - Out of |+>: at optimal tuning qubit 1's detuning delta gamma_bar mixes
      |+> with the bright state |-> (amplitude delta/2), through which |+>
      loses a further gamma_B (delta/2)^2 = gamma_D, so
      Gamma_out = 2 gamma_D + gamma_nr + 2 gamma_phi.
    - Into |+>: the drive reaches |+> from |gg> directly and through |->.
      The two paths add for forward drive and cancel for reverse drive. The
      |gg>-|+> coherence they build decays at p, the width the drive gives
      |gg> through |->, so the pump rate Gamma_in = 4 gamma_D does not
      depend on p.

    Hence Gamma = Gamma_in + Gamma_out = 6 gamma_D + gamma_nr + 2 gamma_phi,
    and the lossless FWHM is 6 delta^2 gamma_bar. The lossless forward dark
    population is Gamma_in / Gamma = 2/3. An optional additive excess
    broadening models detection-chain noise.

    The rates hold in the window delta^2 gamma_bar << p << gamma_bar. Below
    it the coherence no longer dephases faster than the populations relax,
    and Gamma_in falls as 4 gamma_D p / (p + gamma_D). Above it the bright
    ladder saturates, and for delta -> 0 Gamma_in falls as
    4 gamma_D (1 + p^2/2) / (1 + 2p + 3p^2), with p in units of gamma_bar.
    Forward transmitted spectra of the ideal delta^2 = 1e-3 device, fitted
    on a 401-point grid spanning +-8 predicted widths, give

        drive power p / gamma_bar    1e-5   1e-4   1e-3   1e-2   0.05   0.2
        fitted FWHM / prediction     0.18   0.29   0.81   1.10   0.97   0.79

    At the high-efficiency operating power p = 0.05, which lies inside the
    window, the fit is within 4% of the formula.
    """
    gamma_d = 0.5 * delta * delta * gamma_bar
    return 2.0 * (6.0 * gamma_d + gamma_nr + 2.0 * gamma_phi) + gamma_exc
