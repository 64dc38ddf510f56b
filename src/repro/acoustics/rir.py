"""Room impulse responses via the image-source method.

The channels the paper must estimate — noise→error-mic ``h_ne``,
noise→reference-mic ``h_nr``, speaker→error-mic ``h_se`` — are room
impulse responses.  Their *non-minimum-phase* character (Neely & Allen)
is exactly why the inverse filter is non-causal and why lookahead helps,
so the simulation must produce realistic multipath, not just a delayed
impulse.

The classic Allen–Berkley image-source method mirrors the source across
the room walls up to ``max_order`` reflections; each image contributes a
fractionally delayed, distance-attenuated, wall-absorbed impulse.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from ..errors import ConfigurationError
from ..utils.validation import (
    check_int,
    check_non_negative_int,
    check_positive,
)
from .constants import SPEED_OF_SOUND
from .geometry import Point, Room
from .propagation import (
    fractional_delay_filter,
    spreading_gain,
    windowed_sinc_kernels,
)

__all__ = ["RirSettings", "image_sources", "room_impulse_response", "direct_path_ir"]


@dataclasses.dataclass(frozen=True)
class RirSettings:
    """Tuning knobs for the image-source simulation."""

    max_order: int = 3          # reflections per axis direction
    sinc_taps: int = 31         # fractional-delay filter quality
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        check_non_negative_int("max_order", self.max_order)
        if check_int("sinc_taps", self.sinc_taps) < 3:
            raise ConfigurationError("sinc_taps must be >= 3")
        check_positive("speed_of_sound", self.speed_of_sound)


@functools.lru_cache(maxsize=8)
def _image_table(max_order):
    """Every image with at most ``max_order`` bounces, as read-only arrays.

    ``(twice_n, parity, bounces)``: for image indices ``(nx, ny, nz)``
    and parities ``(px, py, pz)`` in ``itertools.product`` order (indices
    outer, parities inner), ``twice_n`` holds ``2.0 * n`` per axis,
    ``parity`` the mirror flags and ``bounces`` the wall-bounce count
    ``|2nx - px| + |2ny - py| + |2nz - pz|``; candidates with more than
    ``max_order`` bounces are dropped.
    """
    index_range = range(-max_order, max_order + 1)
    n = np.array(list(itertools.product(index_range, repeat=3)))
    p = np.array(list(itertools.product((0, 1), repeat=3)))
    n = np.repeat(n, len(p), axis=0)
    p = np.tile(p, (len(index_range) ** 3, 1))
    bounces = np.abs(2 * n - p).sum(axis=1)
    keep = bounces <= max_order
    table = (2.0 * n[keep], p[keep].astype(bool), bounces[keep])
    for array in table:
        array.flags.writeable = False
    return table


def _images(room, source, max_order):
    """Image coordinates ``(k, 3)`` and bounce counts ``(k,)``, in order."""
    if not isinstance(room, Room):
        raise ConfigurationError("room must be a Room")
    room.require_inside("source", source)
    max_order = check_non_negative_int("max_order", max_order)
    twice_n, parity, bounces = _image_table(max_order)
    dims = np.array([room.length, room.width, room.height], dtype=float)
    src = np.array(source.as_tuple(), dtype=float)
    return twice_n * dims + np.where(parity, -src, src), bounces


def image_sources(room, source, max_order):
    """Yield ``(image_position, n_reflections)`` pairs up to ``max_order``.

    Standard mirror construction: for image indices ``(nx, ny, nz)`` and
    parities ``(px, py, pz)``, the image coordinate along x is
    ``2 * nx * Lx + (source.x if px == 0 else -source.x)`` (likewise y, z),
    and the number of wall bounces is ``|2nx - px| + |2ny - py| + |2nz - pz|``.
    """
    coords, bounces = _images(room, source, max_order)
    for xyz, count in zip(coords.tolist(), bounces.tolist()):
        yield Point(*xyz), count


def room_impulse_response(room, source, microphone, sample_rate,
                          settings=None, normalize=False):
    """Impulse response from ``source`` to ``microphone`` inside ``room``.

    Parameters
    ----------
    room, source, microphone:
        Scene geometry; both points must lie inside the room.
    sample_rate:
        Sampling rate of the returned FIR, in Hz.
    settings:
        Optional :class:`RirSettings`.
    normalize:
        If true, scale so the direct-path tap has unit amplitude —
        convenient when only the *shape* of the multipath matters.

    Returns
    -------
    numpy.ndarray
        FIR coefficients; index 0 corresponds to zero delay, so the
        direct-path arrival appears at ``round(distance / v * fs)``.

    Notes
    -----
    Every image is one row of arrays: delays, gains and a
    ``(images, taps)`` block of fractional-delay kernels, summed into
    the response in image order.  The result is bit-identical to adding
    one image at a time with :func:`fractional_delay_filter` and
    :func:`spreading_gain`.  Two values are computed per image in
    Python because NumPy rounds them differently: the distance
    (``math.dist``) and the wall loss (``reflection ** bounces``).
    """
    settings = settings or RirSettings()
    sample_rate = check_positive("sample_rate", sample_rate)
    room.require_inside("microphone", microphone)
    coords, bounces = _images(room, source, settings.max_order)
    mic = microphone.as_tuple()
    dist = np.array([math.dist(xyz, mic) for xyz in coords.tolist()])
    delay = dist / settings.speed_of_sound * sample_rate
    wall = [room.reflection_coefficient ** b
            for b in range(settings.max_order + 1)]
    # spreading_gain(dist), reference 1 m, clamped below 0.25 m.
    amp = 1.0 / np.maximum(dist, 0.25) * np.array(wall)[bounces]

    center = settings.sinc_taps // 2
    length = int(np.ceil(max(delay.max(), 0.0))) + settings.sinc_taps + 1
    base = np.floor(delay)
    # Use a *centered* fractional-delay kernel (group delay
    # center+frac) and start it `center` samples early, so each
    # arrival lands at its exact delay without truncation bias.
    n_taps = settings.sinc_taps | 1   # odd, as fractional_delay_filter
    kernels, shifts = windowed_sinc_kernels(delay - base + center, n_taps)
    start = (base - center + shifts).astype(np.intp)
    index = start[:, None] + np.arange(n_taps)
    inside = (index >= 0) & (index < length)
    # bincount adds each tap in input order: image by image, as a loop
    # of `ir[start:end] += amp * taps` would.
    ir = np.bincount(index[inside], weights=(amp[:, None] * kernels)[inside],
                     minlength=length)

    if normalize:
        peak = np.max(np.abs(ir))
        if peak > 0:
            ir = ir / peak
    return ir


def direct_path_ir(distance_m, sample_rate, speed=SPEED_OF_SOUND,
                   sinc_taps=31, gain=None):
    """Anechoic (single-path) impulse response over ``distance_m`` meters.

    Used for free-field experiments and unit tests where multipath would
    obscure the property being checked.
    """
    sample_rate = check_positive("sample_rate", sample_rate)
    distance_m = check_positive("distance_m", distance_m)
    delay = distance_m / speed * sample_rate
    base = int(np.floor(delay))
    frac = delay - base
    center = sinc_taps // 2
    taps = fractional_delay_filter(frac + center, n_taps=sinc_taps)
    start = base - center
    if start < 0:
        taps = taps[-start:]
        start = 0
    ir = np.zeros(start + taps.size)
    amplitude = spreading_gain(distance_m) if gain is None else gain
    ir[start:] = amplitude * taps
    return ir
