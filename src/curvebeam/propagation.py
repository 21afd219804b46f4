"""Scalar 2-D field propagation between parallel planes.

Fields live on uniform x grids at fixed depth z and advance plane by plane.
The workhorse is the angular-spectrum step: FFT, multiply by the plane-wave
transfer function ``exp(-1j * dz * sqrt(k_f^2 - k_x^2))`` (evanescent
components zeroed), inverse FFT, then apply any obstacle mask for that
plane.  Outgoing waves carry ``exp(-1j k_f r)`` phase throughout.

Received power is read at a single point, so it is evaluated by
reciprocity.  The forward march is a linear map ``M`` of the deposited
aperture vector ``s``, and the readout is a linear-interpolation row ``r``,
so the field at the receiver is ``rᵀ M s = (Mᵀ r) · s``.
``receiver_response`` computes ``g = Mᵀ r`` with one backward march: the
planes in reverse order, each applying the absorber taper, the plane's
obstacle mask and ``fft(ifft(v) * H)``.  That is the exact transpose of
the forward step, because the masks and the taper are diagonal and the DFT
matrix is symmetric.  Every excitation through the same scene then costs
one dot product (``response_power``), and agrees with ``propagate``
followed by ``received_power`` up to the rounding of reassociated sums.
The forward march stays for whole fields: heatmaps, final slices and
calibration.

``rs_direct`` evaluates the same step by direct quadrature of the first
Rayleigh-Sommerfeld integral, summing the waves emanating from every
aperture sample; it is O(n^2) and exists to validate the spectral step,
not to be fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import hankel2

from .rhs import ApertureExcitation

FREE_SPACE_IMPEDANCE = 376.730


@dataclass(frozen=True)
class GridSpec:
    """Uniform transverse sampling: ``count`` points starting at ``x_start``
    with pitch ``dx``.  ``count`` must be a power of two."""

    x_start: float
    dx: float
    count: int

    def __post_init__(self) -> None:
        if self.dx <= 0.0:
            raise ValueError("dx must be positive")
        if self.count < 2 or self.count & (self.count - 1):
            raise ValueError("count must be a power of two >= 2")

    @property
    def x(self) -> np.ndarray:
        return self.x_start + self.dx * np.arange(self.count)

    @property
    def x_end(self) -> float:
        return self.x_start + self.dx * (self.count - 1)

    @property
    def kx(self) -> np.ndarray:
        """Angular spatial frequencies of the FFT bins."""
        return 2.0 * np.pi * np.fft.fftfreq(self.count, d=self.dx)


def make_grid(x_lo: float, x_hi: float, max_dx: float) -> GridSpec:
    """Grid covering [x_lo, x_hi] with pitch <= max_dx and a power-of-two
    sample count (the pitch shrinks to make the count land on a power of two)."""
    if x_hi <= x_lo:
        raise ValueError("x_hi must exceed x_lo")
    span = x_hi - x_lo
    count = 1 << int(np.ceil(np.log2(span / max_dx)))
    return GridSpec(x_start=x_lo, dx=span / count, count=count)


@dataclass(frozen=True)
class FieldSlice:
    """Complex field samples on a grid at depth z."""

    z: float
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.count,):
            raise ValueError("values shape does not match grid")
        object.__setattr__(self, "values", v)

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned absorbing rectangle.  ``attenuation`` is the amplitude
    transmission applied at every propagation plane inside the z extent
    (0 = opaque)."""

    x_start: float
    z_start: float
    x_size: float
    z_size: float
    attenuation: float = 0.0

    def __post_init__(self) -> None:
        if self.x_size <= 0.0 or self.z_size <= 0.0:
            raise ValueError("obstacle sizes must be positive")
        if not 0.0 <= self.attenuation <= 1.0:
            raise ValueError("attenuation must lie in [0, 1]")

    @property
    def x_end(self) -> float:
        return self.x_start + self.x_size

    @property
    def z_end(self) -> float:
        return self.z_start + self.z_size

    def occupies_depth(self, z: float) -> bool:
        return self.z_start <= z <= self.z_end


@dataclass(frozen=True)
class Scene:
    """Propagation scene: obstacles, the receiver location and the plane
    spacing used to march fields from the aperture to the receiver."""

    receiver_x: float
    receiver_z: float
    obstacles: tuple[Obstacle, ...] = ()
    plane_spacing: float = 5e-3

    def __post_init__(self) -> None:
        if self.receiver_z <= 0.0:
            raise ValueError("receiver depth must be positive")
        if self.plane_spacing <= 0.0:
            raise ValueError("plane_spacing must be positive")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))

    @property
    def plane_count(self) -> int:
        return max(1, int(round(self.receiver_z / self.plane_spacing)))


@dataclass(frozen=True)
class ReceiverModel:
    """Antenna effective aperture (m^2), wave impedance (ohm) and noise power
    (W) of the receiver."""

    effective_aperture: float
    noise_power: float
    impedance: float = FREE_SPACE_IMPEDANCE

    def __post_init__(self) -> None:
        if self.effective_aperture <= 0.0 or self.noise_power <= 0.0:
            raise ValueError("effective_aperture and noise_power must be positive")
        if self.impedance <= 0.0:
            raise ValueError("impedance must be positive")


def excitation_to_slice(exc: ApertureExcitation, grid: GridSpec) -> FieldSlice:
    """Deposit element weights on the grid at z = 0.

    Each element lands on its nearest sample, so the deposited energy equals
    the radiated power exactly.  Elements must fall inside the grid and no
    two may share a sample (guaranteed when dx <= element spacing).
    """
    idx = np.round((exc.positions - grid.x_start) / grid.dx).astype(int)
    if np.any(idx < 0) or np.any(idx >= grid.count):
        raise ValueError("excitation extends outside the grid window")
    if np.unique(idx).size != idx.size:
        raise ValueError("two elements map to the same grid sample; refine dx")
    values = np.zeros(grid.count, dtype=complex)
    values[idx] = exc.weights
    return FieldSlice(z=0.0, grid=grid, values=values)


def transfer_function(grid: GridSpec, dz: float, wavenumber: float) -> np.ndarray:
    """Angular-spectrum transfer function over distance dz, evanescent
    components zeroed."""
    kz_sq = wavenumber**2 - grid.kx**2
    kz = np.sqrt(np.maximum(kz_sq, 0.0))
    return np.where(kz_sq >= 0.0, np.exp(-1j * dz * kz), 0.0)


def absorber_profile(grid: GridSpec, fraction: float = 0.1) -> np.ndarray:
    """Cosine taper falling from 1 to 0 over the outer ``fraction`` of the
    window on each side, to suppress FFT wraparound."""
    if not 0.0 < fraction < 0.5:
        raise ValueError("fraction must lie in (0, 0.5)")
    edge = int(round(fraction * grid.count))
    profile = np.ones(grid.count)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
    profile[:edge] = ramp
    profile[grid.count - edge :] = ramp[::-1]
    return profile


def blockage_profile(scene: Scene, z: float, grid: GridSpec) -> np.ndarray | None:
    """Amplitude transmission across the grid at depth z, or None when no
    obstacle intersects the plane."""
    mask = None
    for obs in scene.obstacles:
        if obs.occupies_depth(z):
            if mask is None:
                mask = np.ones(grid.count)
            inside = (grid.x >= obs.x_start) & (grid.x <= obs.x_end)
            mask[inside] *= obs.attenuation
    return mask


def asm_step(
    sl: FieldSlice,
    dz: float,
    wavenumber: float,
    mask: np.ndarray | None = None,
) -> FieldSlice:
    """Advance a slice by dz with the angular-spectrum method, then apply an
    optional amplitude mask at the destination plane."""
    out = np.fft.ifft(np.fft.fft(sl.values) * transfer_function(sl.grid, dz, wavenumber))
    if mask is not None:
        out = out * mask
    return FieldSlice(z=sl.z + dz, grid=sl.grid, values=out)


def rs_direct(sl: FieldSlice, dz: float, wavenumber: float) -> FieldSlice:
    """Advance a slice by dz via direct quadrature of the Rayleigh-Sommerfeld
    integral (O(n^2) reference for asm_step).

    Every sample radiates the outgoing wave of a line source; for a slab of
    thickness dz the exact first Rayleigh-Sommerfeld kernel is

        K(x - x') = (-1j k / 2) * (dz / r) * H1_2(k r),
        r = sqrt((x - x')^2 + dz^2),

    with ``H1_2`` the order-1 Hankel function matching the exp(-1j k r)
    outgoing convention.  Its transverse Fourier transform is exactly the
    angular-spectrum transfer function, so the two routes must agree for
    band-limited fields.
    """
    if dz <= 0.0:
        raise ValueError("dz must be positive")
    x = sl.grid.x
    diff = x[:, None] - x[None, :]
    r = np.sqrt(diff**2 + dz**2)
    kernel = (-0.5j * wavenumber) * (dz / r) * hankel2(1, wavenumber * r)
    out = kernel @ sl.values * sl.grid.dx
    return FieldSlice(z=sl.z + dz, grid=sl.grid, values=out)


def band_energy(sl: FieldSlice, wavenumber: float) -> float:
    """Energy carried by propagating (non-evanescent) spectral components."""
    spectrum = np.fft.fft(sl.values)
    in_band = np.abs(sl.grid.kx) <= wavenumber
    return float(np.sum(np.abs(spectrum[in_band]) ** 2) / sl.grid.count)


def _march(
    values: np.ndarray,
    grid: GridSpec,
    scene: Scene,
    wavenumber: float,
    absorber_fraction: float | None,
    collect: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Advance one or many fields (rows of ``values``) across all planes."""
    h = transfer_function(grid, scene.plane_spacing, wavenumber)
    taper = absorber_profile(grid, absorber_fraction) if absorber_fraction else None
    out = np.atleast_2d(np.asarray(values, dtype=complex)).copy()
    for step in range(1, scene.plane_count + 1):
        z = step * scene.plane_spacing
        out = np.fft.ifft(np.fft.fft(out, axis=-1) * h, axis=-1)
        mask = blockage_profile(scene, z, grid)
        if mask is not None:
            out *= mask
        if taper is not None:
            out *= taper
        if collect is not None:
            collect.append(out.copy())
    return out


def propagate(
    exc: ApertureExcitation,
    scene: Scene,
    grid: GridSpec,
    wavenumber: float,
    keep_slices: bool = False,
    absorber_fraction: float | None = 0.1,
):
    """March an excitation from the aperture to the receiver plane.

    Returns the final FieldSlice, or with ``keep_slices`` the full list of
    slices including the aperture plane.  The receiver plane is the nearest
    multiple of the scene plane spacing.  ``absorber_fraction=None`` turns
    off the edge taper (useful for energy-conservation checks).
    """
    start = excitation_to_slice(exc, grid)
    collect: list[np.ndarray] | None = [] if keep_slices else None
    final = _march(start.values, grid, scene, wavenumber, absorber_fraction, collect)
    z_final = scene.plane_count * scene.plane_spacing
    if keep_slices:
        slices = [start]
        for step, vals in enumerate(collect, start=1):
            slices.append(
                FieldSlice(z=step * scene.plane_spacing, grid=grid, values=vals[0])
            )
        return slices
    return FieldSlice(z=z_final, grid=grid, values=final[0])


def propagate_batch(
    excitations: list[ApertureExcitation],
    scene: Scene,
    grid: GridSpec,
    wavenumber: float,
    absorber_fraction: float | None = 0.1,
) -> np.ndarray:
    """Propagate many excitations through the same scene in one pass.

    Returns the final-plane field values, one row per excitation, each
    bit-identical to its own ``propagate``.  Received powers go through
    ``receiver_response`` instead, which needs one march for any number of
    excitations.
    """
    if not excitations:
        return np.zeros((0, grid.count), dtype=complex)
    stack = np.stack([excitation_to_slice(e, grid).values for e in excitations])
    return _march(stack, grid, scene, wavenumber, absorber_fraction)


def received_power(sl: FieldSlice, rx: ReceiverModel, x_r: float) -> float:
    """Power captured by the receiver antenna at x_r on the slice's plane:
    ``A_e |E(x_r)|^2 / Z0`` with E linearly interpolated between samples."""
    x = sl.grid.x
    if not x[0] <= x_r <= x[-1]:
        raise ValueError("receiver lies outside the grid window")
    e_re = np.interp(x_r, x, sl.values.real)
    e_im = np.interp(x_r, x, sl.values.imag)
    return rx.effective_aperture * (e_re**2 + e_im**2) / rx.impedance


def receiver_response(
    scene: Scene,
    grid: GridSpec,
    wavenumber: float,
    absorber_fraction: float | None = 0.1,
) -> FieldSlice:
    """Receiver response ``g = Mᵀ r`` on the aperture plane: ``g · s`` is the
    field ``received_power`` reads at ``scene.receiver_x`` after
    ``propagate`` marches the deposited aperture vector ``s``."""
    x = grid.x
    x_r = scene.receiver_x
    if not x[0] <= x_r <= x[-1]:
        raise ValueError("receiver lies outside the grid window")
    # the two linear-interpolation weights of the readout, as in np.interp
    j = min(int(np.searchsorted(x, x_r, side="right")) - 1, grid.count - 2)
    w = (x_r - x[j]) / (x[j + 1] - x[j])
    g = np.zeros(grid.count, dtype=complex)
    g[j], g[j + 1] = 1.0 - w, w
    h = transfer_function(grid, scene.plane_spacing, wavenumber)
    taper = absorber_profile(grid, absorber_fraction) if absorber_fraction else None
    for step in range(scene.plane_count, 0, -1):
        if taper is not None:
            g *= taper
        mask = blockage_profile(scene, step * scene.plane_spacing, grid)
        if mask is not None:
            g *= mask
        g = np.fft.fft(np.fft.ifft(g) * h)
    return FieldSlice(z=0.0, grid=grid, values=g)


def response_power(
    response: FieldSlice, exc: ApertureExcitation, rx: ReceiverModel
) -> float:
    """Power captured by the receiver from ``exc``: ``A_e |g · s|^2 / Z0``
    with ``g`` from ``receiver_response`` and ``s`` the deposited aperture
    vector (a plain dot product, no conjugate)."""
    e = np.dot(response.values, excitation_to_slice(exc, response.grid).values)
    return rx.effective_aperture * (e.real**2 + e.imag**2) / rx.impedance


def achievable_rate(power: float, rx: ReceiverModel) -> float:
    """Shannon rate log2(1 + P / noise) in bit/s/Hz."""
    if power < 0.0:
        raise ValueError("power must be nonnegative")
    return float(np.log2(1.0 + power / rx.noise_power))
