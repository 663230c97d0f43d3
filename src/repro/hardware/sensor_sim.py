"""Slot-level functional simulation of the stacked CE image sensor (Sec. V).

Two simulators implement the per-slot control protocol of the paper:

1. stream the slot's tile pattern into the DFFs (``pixels_per_tile``
   pattern-clock cycles),
2. assert *pattern reset* (CE bit 1 -> PD reset, ready to expose),
3. expose for the slot (every PD integrates its incident light),
4. stream the same pattern in again,
5. assert *pattern transfer* (CE bit 1 -> PD charge moves onto the FD),
6. power-gate the DFFs until the next slot.

The charge a pixel transfers in a slot is exactly that slot's light:
its PD was reset (step 2) just before the exposure (step 3), and both
gates read the same bit.  Charge collected in a slot whose bit is clear
never reaches the FD, because the pixel's next selected slot resets the
PD before exposing it (and readout discards what is left).  So the
readout is the slot-order sum of the gated light, which is exactly
Eqn. 1.

:class:`StackedCESensor` is the production simulator: it holds only the
floating-diffusion charge of the whole array (plus the DFF state) in
NumPy arrays and adds each slot's gated light in one vectorised update,
while its activity counters still follow every protocol phase.
:class:`PixelArraySensor` is the original one-object-per-pixel
reference implementation (kept for protocol-level unit testing and as
the oracle the vectorised sensor is checked against bit-for-bit — same
readout charges, same :class:`CaptureStats`).

After all ``T`` slots, a single read-out produces the coded image.  The
simulation exists to verify that this hardware protocol computes exactly
Eqn. 1 (the test suite checks it against :func:`repro.ce.coded_exposure`)
and to report the control activity used by the CE energy-overhead model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..ce.operator import CEConfig, expand_tile_pattern
from .pixel import CEPixel, TilePatternShiftRegister


@dataclass(frozen=True)
class CaptureStats:
    """Control-activity statistics of one CE capture."""

    pattern_clock_cycles: int
    dff_writes: int
    pd_resets: int
    charge_transfers: int
    pixels_read: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "pattern_clock_cycles": self.pattern_clock_cycles,
            "dff_writes": self.dff_writes,
            "pd_resets": self.pd_resets,
            "charge_transfers": self.charge_transfers,
            "pixels_read": self.pixels_read,
        }


def _validate_pattern(config: CEConfig, tile_pattern: np.ndarray) -> np.ndarray:
    tile_pattern = np.asarray(tile_pattern)
    expected = (config.num_slots, config.tile_size, config.tile_size)
    if tile_pattern.shape != expected:
        raise ValueError(f"tile_pattern shape {tile_pattern.shape} != {expected}")
    if not np.isin(tile_pattern, (0, 1)).all():
        raise ValueError("tile_pattern must be binary")
    return tile_pattern.astype(int)


class StackedCESensor:
    """Vectorised pixel-array simulator of the stacked CE sensor.

    The readout charges and activity counters are identical to
    :class:`PixelArraySensor`'s.  Only the transferred charge is
    simulated: a selected pixel's PD is reset right before it exposes, so
    its transfer onto the FD is exactly the slot's light, and charge of
    an unselected slot is reset away before it could reach the FD.  The
    photodiode array therefore drops out and each slot is one gated add
    ``fd += where(bits, light, 0.0)``, in the same slot order as the
    object-based simulator.  Adding ``+0.0`` leaves every FD value
    unchanged (the FD starts at ``+0.0``, so it is never ``-0.0``) and
    ``0.0 + v == v``, so every FD value goes through the same sequence
    of floating-point additions, NaN/Inf and overflow included.  The
    DFF state and the counters still advance phase by phase.
    """

    def __init__(self, config: CEConfig, tile_pattern: np.ndarray):
        self.config = config
        self.tile_pattern = _validate_pattern(config, tile_pattern)
        height, width = config.frame_height, config.frame_width
        # Frame-level exposure mask, (T, H, W) boolean.
        self._mask = expand_tile_pattern(
            self.tile_pattern, height, width).astype(bool)
        self._ones_per_slot = self._mask.reshape(config.num_slots, -1).sum(axis=1)
        # DFF pattern state; floating-diffusion charge is held per
        # capture (with a leading batch axis) in capture_batch.
        self._dff = np.zeros((height, width), dtype=np.int8)
        self._dff_powered = False
        # Aggregate activity counters (CaptureStats semantics).
        self._clock_cycles = 0
        self._dff_writes = 0
        self._pd_resets = 0
        self._charge_transfers = 0
        self._pixels_read = 0

    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return self.config.tiles_per_frame

    # ------------------------------------------------------------------
    def capture(self, video: np.ndarray) -> np.ndarray:
        """Run the full per-slot protocol on a clip and read out the coded image.

        Parameters
        ----------
        video:
            ``(T, H, W)`` incident light per slot.

        Returns
        -------
        The coded image of shape ``(H, W)`` (raw charge sums, i.e. the
        un-normalised Eqn. 1 output).

        Implemented as a batch-of-one :meth:`capture_batch` so the
        protocol exists exactly once; the per-pixel float operations
        (and therefore the readout charges and counters) are identical.
        """
        video = np.asarray(video)
        expected = (self.config.num_slots, self.config.frame_height,
                    self.config.frame_width)
        if video.shape != expected:
            raise ValueError(f"video shape {video.shape} != expected {expected}")
        return self.capture_batch(video[None])[0]

    # ------------------------------------------------------------------
    def capture_batch(self, videos: np.ndarray) -> np.ndarray:
        """Run the per-slot protocol on a ``(B, T, H, W)`` clip batch at once.

        Simulates ``B`` independent captures in parallel: the
        floating-diffusion state gains a leading batch axis and each
        slot adds its transferred charge, ``where(bits, videos[:, slot],
        0.0)``, in one batched update (a selected PD is reset just before
        it exposes, so it hands over exactly the slot's light).  The
        activity counters advance exactly as ``B`` sequential
        :meth:`capture` calls would: each in-flight capture streams its
        own pattern twice per slot and resets and transfers its selected
        pixels.  ``np.where`` casts the light to float64 exactly while it
        gates (uint8, float32, ... clips), so no float64 copy of the
        batch is made up front.  The returned ``(B, H, W)`` coded images
        are bit-identical to stacking per-clip :meth:`capture` results
        and to :class:`PixelArraySensor` — this is the ``"hardware"``
        capture mode of the serving path.
        """
        videos = np.asarray(videos)
        expected = (self.config.num_slots, self.config.frame_height,
                    self.config.frame_width)
        if videos.ndim != 4 or videos.shape[1:] != expected:
            raise ValueError(
                f"videos shape {videos.shape} != expected (B,) + {expected}")
        if (videos < 0).any():
            raise ValueError("light intensity must be non-negative")
        batch = videos.shape[0]
        if batch == 0:
            return np.zeros((0,) + expected[1:])

        height, width = expected[1:]
        pixels = height * width
        fd = np.zeros((batch, height, width))
        for slot in range(self.config.num_slots):
            bits = self._mask[slot]
            ones = int(self._ones_per_slot[slot]) * batch
            # Phase 1: stream the pattern in and reset selected PDs.
            self._stream_in(bits, pixels * batch)
            self._pd_resets += ones
            self._power_gate()
            # Phases 2-3: expose, stream the pattern again and transfer:
            # a selected PD hands over exactly this slot's light.
            self._stream_in(bits, pixels * batch)
            fd += np.where(bits, videos[:, slot], 0.0)
            self._charge_transfers += ones
            self._power_gate()
        self._pixels_read += pixels * batch
        return fd

    # ------------------------------------------------------------------
    def _stream_in(self, bits: np.ndarray, pixels: int) -> None:
        """One pattern load: every pixel's DFF is written, one clock per bit."""
        np.copyto(self._dff, bits, casting="unsafe")
        self._dff_powered = True
        self._clock_cycles += pixels
        self._dff_writes += pixels

    def _power_gate(self) -> None:
        self._dff_powered = False

    # ------------------------------------------------------------------
    def capture_stats(self) -> CaptureStats:
        """Aggregate control-activity counters across the array."""
        return CaptureStats(pattern_clock_cycles=self._clock_cycles,
                            dff_writes=self._dff_writes,
                            pd_resets=self._pd_resets,
                            charge_transfers=self._charge_transfers,
                            pixels_read=self._pixels_read)

    # ------------------------------------------------------------------
    def expected_clock_cycles_per_capture(self) -> int:
        """Pattern-clock cycles per capture: 2 loads per slot per tile pixel."""
        tiles = (self.config.frame_height // self.config.tile_size) * \
            (self.config.frame_width // self.config.tile_size)
        return 2 * self.config.num_slots * tiles * self.config.pixels_per_tile


class PixelArraySensor:
    """Reference pixel-array simulator built from :class:`CEPixel` objects.

    One Python object per pixel, one method call per control event —
    slow, but a direct transcription of the Fig. 5 protocol.  Used as the
    oracle for :class:`StackedCESensor` (the test suite checks readout
    and :class:`CaptureStats` match exactly) and for event-level
    protocol experiments.
    """

    def __init__(self, config: CEConfig, tile_pattern: np.ndarray):
        self.config = config
        self.tile_pattern = _validate_pattern(config, tile_pattern)
        height, width = config.frame_height, config.frame_width
        self.pixels = [[CEPixel() for _ in range(width)] for _ in range(height)]
        self._tiles = self._build_tiles()

    # ------------------------------------------------------------------
    def _build_tiles(self) -> List[TilePatternShiftRegister]:
        """Group pixels into per-tile shift registers (row-major within a tile)."""
        tile = self.config.tile_size
        registers = []
        for tile_row in range(self.config.frame_height // tile):
            for tile_col in range(self.config.frame_width // tile):
                members = []
                for i in range(tile):
                    for j in range(tile):
                        members.append(
                            self.pixels[tile_row * tile + i][tile_col * tile + j])
                registers.append(TilePatternShiftRegister(members))
        return registers

    @property
    def num_tiles(self) -> int:
        return len(self._tiles)

    # ------------------------------------------------------------------
    def capture(self, video: np.ndarray) -> np.ndarray:
        """Run the full per-slot protocol on a clip and read out the coded image."""
        video = np.asarray(video, dtype=np.float64)
        expected = (self.config.num_slots, self.config.frame_height,
                    self.config.frame_width)
        if video.shape != expected:
            raise ValueError(f"video shape {video.shape} != expected {expected}")

        for slot in range(self.config.num_slots):
            slot_bits = self.tile_pattern[slot].reshape(-1).tolist()
            # Phase 1: stream the pattern in and reset selected PDs.
            for register in self._tiles:
                register.stream_in(list(reversed(slot_bits)))
            self._assert_pattern_reset()
            self._power_gate()
            # Phase 2: exposure — every pixel integrates its incident light.
            self._expose(video[slot])
            # Phase 3: stream the pattern again and transfer selected charges.
            for register in self._tiles:
                register.stream_in(list(reversed(slot_bits)))
            self._assert_pattern_transfer()
            self._power_gate()
        return self._readout()

    # ------------------------------------------------------------------
    def _assert_pattern_reset(self) -> None:
        for row in self.pixels:
            for pixel in row:
                pixel.pattern_reset()

    def _assert_pattern_transfer(self) -> None:
        for row in self.pixels:
            for pixel in row:
                pixel.pattern_transfer()

    def _power_gate(self) -> None:
        for register in self._tiles:
            register.power_gate()

    def _expose(self, frame: np.ndarray) -> None:
        for i, row in enumerate(self.pixels):
            for j, pixel in enumerate(row):
                pixel.expose(float(frame[i, j]))

    def _readout(self) -> np.ndarray:
        height, width = self.config.frame_height, self.config.frame_width
        image = np.empty((height, width))
        for i in range(height):
            for j in range(width):
                image[i, j] = self.pixels[i][j].readout()
        return image

    # ------------------------------------------------------------------
    def capture_stats(self) -> CaptureStats:
        """Aggregate control-activity counters across the array."""
        dff_writes = pd_resets = transfers = reads = 0
        for row in self.pixels:
            for pixel in row:
                dff_writes += pixel.counters.dff_writes
                pd_resets += pixel.counters.pd_resets
                transfers += pixel.counters.charge_transfers
                reads += pixel.counters.readouts
        cycles = sum(register.clock_cycles for register in self._tiles)
        return CaptureStats(pattern_clock_cycles=cycles, dff_writes=dff_writes,
                            pd_resets=pd_resets, charge_transfers=transfers,
                            pixels_read=reads)

    # ------------------------------------------------------------------
    def expected_clock_cycles_per_capture(self) -> int:
        """Pattern-clock cycles per capture: 2 loads per slot per tile pixel."""
        tiles = (self.config.frame_height // self.config.tile_size) * \
            (self.config.frame_width // self.config.tile_size)
        return 2 * self.config.num_slots * tiles * self.config.pixels_per_tile
