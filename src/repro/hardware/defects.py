"""Sensor defect models for coded-exposure capture.

The noise model (:mod:`repro.hardware.noise`) covers the *stochastic*
physics of a healthy pixel; this module covers the ways a real CE sensor
is *broken or mis-driven*:

- **dead pixels** — stuck at zero output regardless of the scene;
- **hot pixels** — stuck near full scale (high dark current / shorted
  reset), again scene-independent;
- **per-tile gain drift** — the tile-repetitive CE logic shares drivers
  per tile, so gain mismatch shows up as a multiplicative factor that is
  constant within a tile and varies across tiles;
- **column FPN** — fixed-pattern offset of the per-column read-out
  chains, additive in accumulated-signal units;
- **dropped exposure slots** — the pattern shift-register misses a slot
  strobe, so the pixel integrates *no* light for that slot while the
  normalisation logic still believes the slot happened;
- **slot jitter** — a slot latches one frame early/late relative to the
  scene (clock skew between scene motion and the exposure strobes);
- **frame-rate mismatch** — the scene evolves faster/slower than the
  slot clock, so slot ``t`` integrates scene frame ``floor(t * factor)``.

All structural maps (which pixels are dead, per-tile gains, ...) are
derived deterministically from the model's ``seed`` and the sensor
geometry — two :class:`SensorDefectModel` instances with equal fields
produce bit-identical defects, which is what makes the scenario matrix
cacheable and worker-count independent.

Temporal faults act in the *video domain* (before integration), so they
compose with any integrator — the algorithmic
:class:`~repro.ce.operator.CodedExposureSensor` or the functional
:class:`~repro.hardware.sensor_sim.StackedCESensor`.  Spatial faults act
on the accumulated (un-normalised) coded signal, i.e. at the read-out
stage where they occur physically; the optional
:class:`~repro.hardware.noise.SensorNoiseModel` slots in between
integration and read-out defects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..ce import CEConfig, CodedExposureSensor
from .noise import SensorNoiseModel
from .sensor_sim import StackedCESensor


@dataclass(frozen=True)
class SensorDefectModel:
    """Deterministic defect/fault configuration of a CE sensor.

    Attributes
    ----------
    dead_pixel_fraction:
        Fraction of pixels stuck at zero output.
    hot_pixel_fraction:
        Fraction of pixels stuck high (disjoint from the dead set).
    hot_pixel_level:
        Normalised level a hot pixel reads after exposure-count
        normalisation (1.0 = full scale).
    tile_gain_sigma:
        Std-dev of the per-tile multiplicative gain around 1.0.
    column_offset_sigma:
        Std-dev of the additive per-column FPN offset, in accumulated
        (un-normalised) signal units.
    dropped_slots:
        Number of exposure slots whose strobe is lost: the pixel array
        integrates no light for them, but down-stream normalisation
        still assumes they happened.
    slot_jitter:
        Probability that a slot latches the adjacent scene frame
        (one early or one late) instead of its own.
    frame_rate_factor:
        Scene-to-slot-clock rate ratio; slot ``t`` integrates scene
        frame ``floor(t * factor)`` (clamped).  1.0 = matched rates.
    seed:
        Seed for every structural draw (dead set, gains, jitter, ...).
    """

    dead_pixel_fraction: float = 0.0
    hot_pixel_fraction: float = 0.0
    hot_pixel_level: float = 1.0
    tile_gain_sigma: float = 0.0
    column_offset_sigma: float = 0.0
    dropped_slots: int = 0
    slot_jitter: float = 0.0
    frame_rate_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.dead_pixel_fraction <= 1.0:
            raise ValueError("dead_pixel_fraction must be in [0, 1]")
        if not 0.0 <= self.hot_pixel_fraction <= 1.0:
            raise ValueError("hot_pixel_fraction must be in [0, 1]")
        if self.dead_pixel_fraction + self.hot_pixel_fraction > 1.0:
            raise ValueError("dead + hot pixel fractions exceed the array")
        if self.hot_pixel_level < 0:
            raise ValueError("hot_pixel_level must be non-negative")
        if self.tile_gain_sigma < 0 or self.column_offset_sigma < 0:
            raise ValueError("defect magnitudes must be non-negative")
        if self.dropped_slots < 0:
            raise ValueError("dropped_slots must be non-negative")
        if not 0.0 <= self.slot_jitter <= 1.0:
            raise ValueError("slot_jitter must be in [0, 1]")
        if self.frame_rate_factor <= 0:
            raise ValueError("frame_rate_factor must be positive")

    # ------------------------------------------------------------------
    # Structural maps (deterministic in seed + geometry)
    # ------------------------------------------------------------------
    def _rng(self, stream: int) -> np.random.Generator:
        # Independent substreams per defect kind, so e.g. raising the
        # dead-pixel fraction does not reshuffle the tile gains.
        return np.random.default_rng([self.seed, stream])

    def pixel_defect_masks(self, height: int,
                           width: int) -> Tuple[np.ndarray, np.ndarray]:
        """Boolean ``(dead, hot)`` masks of shape ``(H, W)``, disjoint."""
        total = height * width
        num_dead = int(round(self.dead_pixel_fraction * total))
        num_hot = int(round(self.hot_pixel_fraction * total))
        order = self._rng(1).permutation(total)
        dead = np.zeros(total, dtype=bool)
        hot = np.zeros(total, dtype=bool)
        dead[order[:num_dead]] = True
        hot[order[num_dead:num_dead + num_hot]] = True
        return dead.reshape(height, width), hot.reshape(height, width)

    def tile_gain_map(self, config: CEConfig) -> np.ndarray:
        """Full-frame multiplicative gain map, constant within each tile."""
        tiles_h = config.frame_height // config.tile_size
        tiles_w = config.frame_width // config.tile_size
        gains = 1.0 + self._rng(2).normal(
            0.0, self.tile_gain_sigma, size=(tiles_h, tiles_w))
        gains = np.clip(gains, 0.0, None)
        return np.repeat(np.repeat(gains, config.tile_size, axis=0),
                         config.tile_size, axis=1)

    def column_offsets(self, width: int) -> np.ndarray:
        """Additive per-column FPN offsets of shape ``(width,)``."""
        return self._rng(3).normal(0.0, self.column_offset_sigma, size=width)

    def dropped_slot_indices(self, num_slots: int) -> np.ndarray:
        """Sorted indices of the slots whose strobe is lost."""
        count = min(self.dropped_slots, num_slots)
        picks = self._rng(4).choice(num_slots, size=count, replace=False)
        return np.sort(picks)

    def slot_source_frames(self, num_slots: int) -> np.ndarray:
        """Scene-frame index each slot integrates, ``-1`` for no light.

        Combines frame-rate mismatch, slot jitter, and dropped slots
        into a single gather map over the scene clip.
        """
        slots = np.arange(num_slots)
        source = np.floor(slots * self.frame_rate_factor).astype(np.int64)
        if self.slot_jitter > 0.0:
            rng = self._rng(5)
            jittered = rng.random(num_slots) < self.slot_jitter
            shift = np.where(rng.random(num_slots) < 0.5, -1, 1)
            source = np.where(jittered, source + shift, source)
        source = np.clip(source, 0, num_slots - 1)
        source[self.dropped_slot_indices(num_slots)] = -1
        return source

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    @property
    def has_temporal_faults(self) -> bool:
        return (self.dropped_slots > 0 or self.slot_jitter > 0.0
                or self.frame_rate_factor != 1.0)

    @property
    def has_readout_faults(self) -> bool:
        return (self.dead_pixel_fraction > 0 or self.hot_pixel_fraction > 0
                or self.tile_gain_sigma > 0 or self.column_offset_sigma > 0)

    def apply_to_video(self, video: np.ndarray) -> np.ndarray:
        """Re-time a ``(T, H, W)`` or ``(B, T, H, W)`` clip through the
        temporal faults; dropped slots become dark frames."""
        video = np.asarray(video, dtype=np.float64)
        if not self.has_temporal_faults:
            return video
        squeeze = video.ndim == 3
        if squeeze:
            video = video[None]
        if video.ndim != 4:
            raise ValueError("video must have shape (T, H, W) or (B, T, H, W)")
        source = self.slot_source_frames(video.shape[1])
        gathered = video[:, np.clip(source, 0, None)]
        gathered[:, source < 0] = 0.0
        return gathered[0] if squeeze else gathered

    def apply_to_coded(self, accumulated: np.ndarray, config: CEConfig,
                       exposure_counts: np.ndarray) -> np.ndarray:
        """Apply read-out faults to accumulated (un-normalised) signal.

        Order matches the read-out chain: per-tile gain mismatch acts on
        the integrated charge, column FPN is added by the column
        amplifiers, and stuck pixels override whatever was integrated.
        ``exposure_counts`` is the per-pixel open-slot count, which sets
        the accumulated-unit level of a hot pixel.
        """
        coded = np.asarray(accumulated, dtype=np.float64).copy()
        if not self.has_readout_faults:
            return coded
        if self.tile_gain_sigma > 0:
            coded *= self.tile_gain_map(config)
        if self.column_offset_sigma > 0:
            coded += self.column_offsets(coded.shape[-1])
        if self.dead_pixel_fraction > 0 or self.hot_pixel_fraction > 0:
            dead, hot = self.pixel_defect_masks(
                coded.shape[-2], coded.shape[-1])
            if hot.any():
                # A hot pixel reads hot_pixel_level after normalisation,
                # i.e. level * exposure_count in accumulated units.
                counts = np.asarray(exposure_counts, dtype=np.float64)
                coded[..., hot] = self.hot_pixel_level * counts[hot]
            if dead.any():
                coded[..., dead] = 0.0
        return coded


class DefectiveSensor:
    """A CE sensor with defects (and optionally noise) in the capture path.

    Composition order per capture::

        scene clip
          -> temporal faults (frame-rate / jitter / dropped slots)
          -> CE integration (algorithmic operator or stacked hardware sim)
          -> per-tile gain drift
          -> SensorNoiseModel (optional; shot/dark/read noise + ADC)
          -> column FPN, hot pixels, dead pixels
          -> exposure-count normalisation

    Noise draws come from one per-sensor generator stream (seeded by the
    noise model), so repeated captures within a session see fresh noise
    while the first capture matches the bare
    :class:`~repro.hardware.noise.NoisyCodedExposureSensor` bit-for-bit.
    """

    def __init__(self, config: CEConfig, tile_pattern: np.ndarray,
                 defects: SensorDefectModel,
                 noise: Optional[SensorNoiseModel] = None,
                 hardware_sim: bool = False):
        self.config = config
        self.defects = defects
        self.noise = noise
        self._clean_sensor = CodedExposureSensor(config, tile_pattern)
        self.tile_pattern = self._clean_sensor.tile_pattern
        self._hardware = (StackedCESensor(config, tile_pattern)
                          if hardware_sim else None)
        self._session_rng = noise.stream() if noise is not None else None

    # ------------------------------------------------------------------
    @property
    def exposure_counts_map(self) -> np.ndarray:
        """Per-pixel exposure counts the normalisation logic assumes."""
        return self._clean_sensor.full_mask.sum(axis=0)

    def _integrate(self, videos: np.ndarray) -> np.ndarray:
        if self._hardware is not None:
            if videos.ndim == 3:
                return self._hardware.capture(videos)
            return self._hardware.capture_batch(videos)
        return self._clean_sensor.capture_raw(videos)

    def capture_raw(self, videos: np.ndarray,
                    rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Accumulated (un-normalised) defective capture."""
        faulted = self.defects.apply_to_video(videos)
        coded = self._integrate(faulted)
        counts = self.exposure_counts_map
        if self.defects.tile_gain_sigma > 0:
            coded = coded * self.defects.tile_gain_map(self.config)
        if self.noise is not None:
            coded = self.noise.apply(coded, counts,
                                     rng=rng or self._session_rng)
        if self.defects.column_offset_sigma > 0:
            coded = coded + self.defects.column_offsets(coded.shape[-1])
        if (self.defects.dead_pixel_fraction > 0
                or self.defects.hot_pixel_fraction > 0):
            dead, hot = self.defects.pixel_defect_masks(
                self.config.frame_height, self.config.frame_width)
            if hot.any():
                coded = coded.copy()
                coded[..., hot] = self.defects.hot_pixel_level * counts[hot]
            if dead.any():
                if not hot.any():
                    coded = coded.copy()
                coded[..., dead] = 0.0
        return coded

    def capture(self, videos: np.ndarray,
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Defective capture; same interface as the clean sensor."""
        coded = self.capture_raw(videos, rng=rng)
        if self.config.normalize_by_exposures:
            safe_counts = np.maximum(self.exposure_counts_map, 1.0)
            return coded / safe_counts
        return coded

    def capture_clean(self, videos: np.ndarray) -> np.ndarray:
        """The defect-free, noise-free reference capture."""
        return self._clean_sensor.capture(videos)


def healthy_defects(seed: int = 0) -> SensorDefectModel:
    """A defect model with every fault disabled (identity transform)."""
    return SensorDefectModel(seed=seed)


def with_severity(defects: SensorDefectModel, **fields) -> SensorDefectModel:
    """Return a copy of ``defects`` with the given fields replaced."""
    return replace(defects, **fields)
