"""Tests for the CE pixel functional simulator and the area model (paper Sec. V)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce import (
    CEConfig,
    coded_exposure,
    expand_tile_pattern,
    random_pattern,
    sparse_random_pattern,
)
from repro.hardware import (
    BROADCAST_WIRE_SIDE_UM,
    CE_LOGIC_AREA_22NM_UM2,
    CE_LOGIC_AREA_65NM_UM2,
    CEPixel,
    PixelArraySensor,
    SHIFT_REGISTER_WIRES,
    StackedCESensor,
    TilePatternShiftRegister,
    broadcast_wire_area,
    broadcast_wire_side,
    broadcast_wires_per_pixel,
    ce_logic_area,
    pixel_area_report,
    scaling_factor,
)


class TestCEPixel:
    def test_exposed_slot_is_integrated(self):
        pixel = CEPixel()
        pixel.load_pattern_bit(1)
        pixel.pattern_reset()
        pixel.expose(0.7)
        pixel.pattern_transfer()
        assert pixel.readout() == pytest.approx(0.7)

    def test_unexposed_slot_is_discarded(self):
        pixel = CEPixel()
        pixel.load_pattern_bit(0)
        pixel.pattern_reset()
        pixel.expose(0.7)
        pixel.pattern_transfer()
        assert pixel.readout() == pytest.approx(0.0)

    def test_multi_slot_accumulation(self):
        """FD accumulates exactly the slots whose CE bit is 1 (Eqn. 1)."""
        pixel = CEPixel()
        light = [0.1, 0.2, 0.3, 0.4]
        bits = [1, 0, 1, 0]
        for intensity, bit in zip(light, bits):
            pixel.load_pattern_bit(bit)
            pixel.pattern_reset()
            pixel.expose(intensity)
            pixel.load_pattern_bit(bit)
            pixel.pattern_transfer()
            pixel.power_gate_dff()
        assert pixel.readout() == pytest.approx(0.1 + 0.3)

    def test_pd_reset_clears_stale_charge(self):
        """A CE bit of 1 resets the PD so earlier unselected light is not
        accidentally integrated."""
        pixel = CEPixel()
        pixel.load_pattern_bit(0)
        pixel.pattern_reset()
        pixel.expose(0.9)          # stale charge from an unselected slot
        pixel.pattern_transfer()   # not transferred
        pixel.load_pattern_bit(1)
        pixel.pattern_reset()      # clears the stale 0.9
        pixel.expose(0.2)
        pixel.pattern_transfer()
        assert pixel.readout() == pytest.approx(0.2)

    def test_readout_resets_pixel(self):
        pixel = CEPixel()
        pixel.load_pattern_bit(1)
        pixel.pattern_reset()
        pixel.expose(1.0)
        pixel.pattern_transfer()
        pixel.readout()
        assert pixel.readout() == pytest.approx(0.0)

    def test_invalid_bit_and_light(self):
        pixel = CEPixel()
        with pytest.raises(ValueError):
            pixel.load_pattern_bit(2)
        with pytest.raises(ValueError):
            pixel.expose(-1.0)

    def test_control_without_dff_power_raises(self):
        pixel = CEPixel()
        with pytest.raises(RuntimeError):
            pixel.pattern_reset()
        pixel.load_pattern_bit(1)
        pixel.power_gate_dff()
        with pytest.raises(RuntimeError):
            pixel.pattern_transfer()

    def test_activity_counters(self):
        pixel = CEPixel()
        pixel.load_pattern_bit(1)
        pixel.pattern_reset()
        pixel.expose(0.5)
        pixel.pattern_transfer()
        pixel.readout()
        assert pixel.counters.dff_writes == 1
        assert pixel.counters.pd_resets == 1
        assert pixel.counters.charge_transfers == 1
        assert pixel.counters.readouts == 1


class TestShiftRegister:
    def test_stream_in_assigns_bits(self):
        pixels = [CEPixel() for _ in range(4)]
        register = TilePatternShiftRegister(pixels)
        register.stream_in([1, 0, 1, 0])
        # Shift-register semantics: first-streamed bit lands in the last pixel.
        assert [p.dff_bit for p in pixels] == [0, 1, 0, 1]
        assert register.clock_cycles == 4

    def test_wrong_length_raises(self):
        register = TilePatternShiftRegister([CEPixel(), CEPixel()])
        with pytest.raises(ValueError):
            register.stream_in([1])

    def test_empty_tile_rejected(self):
        with pytest.raises(ValueError):
            TilePatternShiftRegister([])

    def test_invalid_bits_rejected(self):
        register = TilePatternShiftRegister([CEPixel(), CEPixel()])
        with pytest.raises(ValueError):
            register.stream_in([1, 2])


class TestStackedCESensor:
    def _config(self, slots=4, tile=2, size=8):
        return CEConfig(num_slots=slots, tile_size=tile, frame_height=size,
                        frame_width=size)

    def test_hardware_matches_equation_one(self, rng):
        """The Fig. 5 protocol computes exactly Eqn. 1 — the paper's core
        hardware claim, checked against the algorithmic CE operator."""
        config = self._config()
        pattern = random_pattern(4, 2, rng=rng)
        sensor = StackedCESensor(config, pattern)
        video = rng.random((4, 8, 8))
        hardware_image = sensor.capture(video)
        reference = coded_exposure(video, expand_tile_pattern(pattern, 8, 8))
        assert np.allclose(hardware_image, reference)

    def test_sparse_pattern_matches_reference(self, rng):
        config = self._config(slots=6, tile=2, size=4)
        pattern = sparse_random_pattern(6, 2, rng=rng)
        sensor = StackedCESensor(config, pattern)
        video = rng.random((6, 4, 4))
        assert np.allclose(sensor.capture(video),
                           coded_exposure(video, expand_tile_pattern(pattern, 4, 4)))

    def test_invalid_pattern_shape(self, rng):
        with pytest.raises(ValueError):
            StackedCESensor(self._config(), np.ones((4, 3, 3)))

    def test_non_binary_pattern(self):
        with pytest.raises(ValueError):
            StackedCESensor(self._config(), np.full((4, 2, 2), 0.5))

    def test_wrong_video_shape(self, rng):
        sensor = StackedCESensor(self._config(), random_pattern(4, 2, rng=rng))
        with pytest.raises(ValueError):
            sensor.capture(rng.random((3, 8, 8)))

    def test_clock_cycle_accounting(self, rng):
        config = self._config(slots=3, tile=2, size=4)
        sensor = StackedCESensor(config, random_pattern(3, 2, rng=rng))
        sensor.capture(rng.random((3, 4, 4)))
        stats = sensor.capture_stats()
        assert stats.pattern_clock_cycles == sensor.expected_clock_cycles_per_capture()
        # Every pixel's DFF is written twice per slot.
        assert stats.dff_writes == 2 * 3 * 16
        assert stats.pixels_read == 16

    def test_stats_dict(self, rng):
        config = self._config(slots=2, tile=2, size=4)
        sensor = StackedCESensor(config, random_pattern(2, 2, rng=rng))
        sensor.capture(rng.random((2, 4, 4)))
        stats = sensor.capture_stats().as_dict()
        assert set(stats) == {"pattern_clock_cycles", "dff_writes", "pd_resets",
                              "charge_transfers", "pixels_read"}

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=8, deadline=None)
    def test_protocol_equivalence_property(self, slots):
        """For any slot count and random pattern, hardware == Eqn. 1."""
        rng = np.random.default_rng(slots)
        config = CEConfig(num_slots=slots, tile_size=2, frame_height=4, frame_width=4)
        pattern = random_pattern(slots, 2, rng=rng)
        sensor = StackedCESensor(config, pattern)
        video = rng.random((slots, 4, 4))
        assert np.allclose(sensor.capture(video),
                           coded_exposure(video, expand_tile_pattern(pattern, 4, 4)))


class TestStackedMatchesPixelArrayOracle:
    """Adversarial clips through the batched simulator vs the per-pixel oracle.

    The batched simulator adds only each slot's gated light to the FD;
    the oracle runs every reset / exposure / transfer on every pixel.
    They agree bit-for-bit only if light of an unselected slot never
    reaches the FD and a selected PD hands over exactly the slot's light,
    so non-finite and overflowing charge in both kinds of slot, signed
    zeros and non-float64 clips are the inputs that could tell them apart.
    """

    SLOTS, TILE, SIZE, BATCH = 4, 2, 4, 3

    def _pattern(self):
        # Tile pixel 0 always open, 1 and 2 alternate (pixel 1 starts
        # closed, so its PD collects light before its first reset) and
        # pixel 3 is never open (none of its charge reaches the FD).
        pattern = np.zeros((self.SLOTS, self.TILE, self.TILE), dtype=int)
        for slot in range(self.SLOTS):
            pattern[slot] = [[1, slot % 2], [1 - slot % 2, 0]]
        return pattern

    def _mask(self):
        return expand_tile_pattern(self._pattern(), self.SIZE,
                                   self.SIZE).astype(bool)

    def _spike(self, videos, rng, exposed, value, count=3):
        """Write ``value`` into ``count`` random (slot, pixel) cells per
        clip, all in open (``exposed``) or all in closed slots."""
        cells = np.argwhere(self._mask() == exposed)
        for clip in videos:
            for t, i, j in cells[rng.choice(len(cells), count, replace=False)]:
                clip[t, i, j] = value
        return videos

    def _clips(self, case, rng):
        shape = (self.BATCH, self.SLOTS, self.SIZE, self.SIZE)
        if case == "uint8":
            return rng.integers(0, 256, size=shape, dtype=np.uint8)
        if case == "float32":
            # Pixel (0, 0) is open in every slot: its charge overflows a
            # float32 accumulator but not the float64 FD.
            videos = rng.random(shape, dtype=np.float32)
            videos[:, :, 0, 0] = np.float32(3e38)
            return videos
        videos = rng.random(shape)
        if case == "nonfinite":
            for exposed in (True, False):
                self._spike(videos, rng, exposed, np.inf)
                self._spike(videos, rng, exposed, np.nan)
        elif case == "negative_zero":
            videos[0] = -0.0
            videos[1, 2] = -0.0
        elif case == "overflow":
            for exposed in (True, False):
                self._spike(videos, rng, exposed, 1e308, count=6)
        return videos

    @pytest.mark.parametrize(
        "case", ["nonfinite", "negative_zero", "overflow", "uint8", "float32"])
    def test_batch_matches_pixel_array_bitwise(self, case, rng):
        config = CEConfig(num_slots=self.SLOTS, tile_size=self.TILE,
                          frame_height=self.SIZE, frame_width=self.SIZE)
        videos = self._clips(case, rng)
        stacked = StackedCESensor(config, self._pattern())
        oracle = PixelArraySensor(config, self._pattern())
        with np.errstate(over="ignore"):
            batched = stacked.capture_batch(videos)
        reference = np.stack([oracle.capture(video) for video in videos])
        assert batched.dtype == reference.dtype == np.float64
        assert np.array_equal(batched, reference, equal_nan=True)
        assert np.array_equal(np.signbit(batched), np.signbit(reference))
        assert stacked.capture_stats() == oracle.capture_stats()
        if case in ("nonfinite", "overflow"):
            # The clips must really carry non-finite charge into the FD.
            assert not np.isfinite(batched).all()


class TestAreaModel:
    def test_65nm_to_22nm_matches_paper(self):
        """Sec. V: 30 um^2 at 65 nm scales to ~3.2 um^2 at 22 nm."""
        assert ce_logic_area(65.0) == pytest.approx(CE_LOGIC_AREA_65NM_UM2)
        assert ce_logic_area(22.0) == pytest.approx(CE_LOGIC_AREA_22NM_UM2, rel=0.02)

    def test_scaling_factor_monotonic(self):
        assert scaling_factor(65, 22) > scaling_factor(65, 45) > 1.0
        with pytest.raises(ValueError):
            scaling_factor(0, 22)

    def test_broadcast_wire_sides_match_paper(self):
        """Sec. V: 2.24 um at N = 8 and 3.92 um at N = 14."""
        assert broadcast_wire_side(8) == pytest.approx(BROADCAST_WIRE_SIDE_UM[8], rel=0.01)
        assert broadcast_wire_side(14) == pytest.approx(BROADCAST_WIRE_SIDE_UM[14], rel=0.01)

    def test_broadcast_wires_grow_with_tile(self):
        assert broadcast_wires_per_pixel(14) > broadcast_wires_per_pixel(8)
        assert broadcast_wires_per_pixel(8) == 16
        with pytest.raises(ValueError):
            broadcast_wires_per_pixel(0)

    def test_shift_register_wires_constant(self):
        assert SHIFT_REGISTER_WIRES == 4

    def test_area_report_paper_claims(self):
        """The stacked logic hides under the APS pixel; the broadcast wires
        exceed it at N = 14 (the paper's argument for the shift register)."""
        report_small = pixel_area_report(node_nm=22.0, tile_size=8)
        report_large = pixel_area_report(node_nm=22.0, tile_size=14)
        assert report_small.logic_fits_under_pixel
        assert not report_small.broadcast_exceeds_pixel
        assert report_large.broadcast_exceeds_pixel

    def test_broadcast_area_quadratic_in_n(self):
        assert broadcast_wire_area(16) == pytest.approx(4 * broadcast_wire_area(8))

    def test_invalid_tile_size(self):
        with pytest.raises(ValueError):
            broadcast_wire_side(0)
