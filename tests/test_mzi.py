"""Tests for the two-path interferometer modes and their duality reports."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from whichway.metrics import DISTINGUISHABILITY, PREDICTABILITY
from whichway.mzi import (
    MziConfig,
    MziMode,
    asymmetric_duality,
    mzi_duality,
    output_intensity,
)

BALANCED = 0.5
PHASES = [0.0, 0.3, math.pi / 2.0, math.pi, 4.0]

amplitude = st.floats(min_value=1e-3, max_value=0.7)


def swept_visibility(cfg: MziConfig, samples: int = 720) -> float:
    """Numeric reference for the visibility: (max - min) / (max + min) of
    the port-0 rate over a phase sweep that includes the extremes 0 and
    pi."""
    rates = [output_intensity(cfg, 2.0 * math.pi * k / samples)
             for k in range(samples)]
    hi, lo = max(rates), min(rates)
    return 0.0 if hi <= 0.0 else (hi - lo) / (hi + lo)


class TestOutputIntensity:
    def test_open_constructive(self):
        cfg = MziConfig(BALANCED, BALANCED, mode=MziMode.OPEN)
        assert output_intensity(cfg, 0.0) == 0.5
        assert output_intensity(cfg, 0.0, port=1) == 0.0

    def test_open_destructive(self):
        cfg = MziConfig(BALANCED, BALANCED, mode=MziMode.OPEN)
        assert output_intensity(cfg, math.pi) == pytest.approx(0.0, abs=1e-16)
        assert output_intensity(cfg, math.pi, port=1) == pytest.approx(
            0.5, abs=1e-16)

    @pytest.mark.parametrize("phase", PHASES)
    def test_blocked_is_flat(self, phase):
        cfg = MziConfig(BALANCED, BALANCED, mode=MziMode.BLOCKED_B)
        assert output_intensity(cfg, phase) == BALANCED * BALANCED
        assert output_intensity(cfg, phase, port=1) == 0.0

    @pytest.mark.parametrize("phase", PHASES)
    def test_marker_is_flat(self, phase):
        cfg = MziConfig(BALANCED, BALANCED, mode=MziMode.MARKER)
        expected = 0.5 * (BALANCED**2 + BALANCED**2)
        assert output_intensity(cfg, phase) == expected
        assert output_intensity(cfg, phase, port=1) == expected

    def test_knockout_destructive_zero(self):
        cfg = MziConfig(BALANCED, BALANCED, mode=MziMode.KNOCKOUT_B)
        assert output_intensity(cfg, math.pi) == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("phase", PHASES)
    def test_knockout_is_half_of_open(self, phase):
        open_cfg = MziConfig(BALANCED, 0.3, mode=MziMode.OPEN)
        veto_cfg = MziConfig(BALANCED, 0.3, mode=MziMode.KNOCKOUT_B)
        for port in (0, 1):
            assert output_intensity(veto_cfg, phase, port=port) \
                == 0.5 * output_intensity(open_cfg, phase, port=port)

    def test_rejects_bad_port(self):
        cfg = MziConfig(BALANCED, BALANCED)
        with pytest.raises(ValueError):
            output_intensity(cfg, 0.0, port=2)

    @given(a=amplitude, b=amplitude, phase=st.floats(min_value=-10.0,
                                                     max_value=10.0))
    def test_open_ports_conserve_energy(self, a, b, phase):
        cfg = MziConfig(a, b, mode=MziMode.OPEN)
        total = output_intensity(cfg, phase) + output_intensity(cfg, phase,
                                                                port=1)
        assert total == pytest.approx(a * a + b * b, rel=1e-12)


class TestDetectedFraction:
    @staticmethod
    def detected(mode: MziMode, b: float = BALANCED) -> float:
        return mzi_duality(MziConfig(BALANCED, b, mode=mode)
                           ).meta["detected_fraction"]

    def test_open_and_marker_detect_all(self):
        for mode in (MziMode.OPEN, MziMode.MARKER):
            assert self.detected(mode) == 1.0
            assert self.detected(mode, b=0.3) == 1.0

    def test_veto_detects_arm_a_share(self):
        for mode in (MziMode.BLOCKED_B, MziMode.KNOCKOUT_B):
            assert self.detected(mode) == 0.5
            assert self.detected(mode, b=0.3) \
                == BALANCED**2 / (BALANCED**2 + 0.3**2)


class TestMziDuality:
    def test_open_balanced(self):
        report = mzi_duality(MziConfig(BALANCED, BALANCED, mode=MziMode.OPEN))
        assert report.which_way_kind == PREDICTABILITY
        assert report.which_way_value == 0.0
        assert report.visibility == pytest.approx(1.0, abs=1e-12)
        assert report.duality_sum == pytest.approx(1.0, abs=1e-12)
        assert report.inequality_satisfied

    def test_blocked(self):
        report = mzi_duality(
            MziConfig(BALANCED, BALANCED, mode=MziMode.BLOCKED_B))
        assert report.which_way_kind == PREDICTABILITY
        assert report.which_way_value == 1.0
        assert report.visibility == 0.0
        assert report.duality_sum == 1.0
        assert report.inequality_satisfied
        assert report.meta["detected_fraction"] == 0.5

    def test_marker(self):
        report = mzi_duality(MziConfig(BALANCED, BALANCED, mode=MziMode.MARKER))
        assert report.which_way_kind == DISTINGUISHABILITY
        assert report.which_way_value == 1.0
        assert report.visibility == 0.0
        assert report.duality_sum == 1.0
        assert report.meta["detected_fraction"] == 1.0

    def test_knockout_exceeds_the_bound(self):
        # Post-selected veto keeps full fringe contrast while every detected
        # particle has a known path: the quadrature sum reaches 2.
        report = mzi_duality(
            MziConfig(BALANCED, BALANCED, mode=MziMode.KNOCKOUT_B))
        assert report.which_way_value == 1.0
        assert report.visibility == pytest.approx(1.0, abs=1e-12)
        assert report.duality_sum == pytest.approx(2.0, abs=1e-12)
        assert not report.inequality_satisfied
        assert report.meta["detected_fraction"] == 0.5

    def test_knockout_keeps_open_visibility(self):
        open_v = mzi_duality(
            MziConfig(BALANCED, 0.3, mode=MziMode.OPEN)).visibility
        veto_v = mzi_duality(
            MziConfig(BALANCED, 0.3, mode=MziMode.KNOCKOUT_B)).visibility
        assert veto_v == open_v

    def test_open_balanced_saturates_exactly(self):
        report = mzi_duality(MziConfig(BALANCED, BALANCED))
        assert report.visibility == 1.0
        assert report.duality_sum == 1.0

    @given(a=amplitude, b=amplitude)
    def test_open_is_the_asymmetric_report(self, a, b):
        assert mzi_duality(MziConfig(a, b)) == asymmetric_duality(a, b)

    @given(a=amplitude, b=amplitude, mode=st.sampled_from(MziMode))
    def test_closed_form_matches_phase_sweep(self, a, b, mode):
        cfg = MziConfig(a, b, mode=mode)
        assert abs(mzi_duality(cfg).visibility
                   - swept_visibility(cfg)) <= 1e-15

    def test_meta_records_mode_and_assumption(self):
        report = mzi_duality(MziConfig(BALANCED, BALANCED, mode=MziMode.OPEN))
        assert report.meta["mode"] == "open"
        assert "coherent" in report.meta["assumption"]

    @pytest.mark.parametrize("mode,name", [
        (MziMode.OPEN, "open"), (MziMode.BLOCKED_B, "blocked"),
        (MziMode.MARKER, "marker"), (MziMode.KNOCKOUT_B, "knockout")])
    def test_meta_mode_is_the_cli_name(self, mode, name):
        assert MziMode(name) is mode
        report = mzi_duality(MziConfig(BALANCED, 0.3, mode=mode))
        assert report.meta["mode"] == name

    @pytest.mark.parametrize("mode", [MziMode.BLOCKED_B, MziMode.KNOCKOUT_B])
    def test_veto_modes_need_arm_a(self, mode):
        with pytest.raises(ValueError,
                           match=f"^{mode.value} needs amplitude_a > 0$"):
            mzi_duality(MziConfig(0.0, BALANCED, mode=mode))


class TestMziConfig:
    def test_rejects_overfull_amplitudes(self):
        with pytest.raises(ValueError):
            MziConfig(0.9, 0.9)

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            MziConfig(0.0, 0.0)
        with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 > 0"):
            MziConfig(1e-200, 1e-200)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MziConfig(-0.5, 0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MziConfig(math.nan, 0.5)

    def test_rejects_mode_string(self):
        with pytest.raises(ValueError):
            MziConfig(0.5, 0.5, mode="open")


class TestAsymmetricDuality:
    def test_balanced_saturates_with_full_visibility(self):
        report = asymmetric_duality(BALANCED, BALANCED)
        assert report.which_way_value == 0.0
        assert report.visibility == 1.0
        assert report.duality_sum == 1.0

    def test_single_arm(self):
        report = asymmetric_duality(BALANCED, 0.0)
        assert report.which_way_value == 1.0
        assert report.visibility == 0.0
        assert report.duality_sum == 1.0

    def test_ninety_ten_split(self):
        report = asymmetric_duality(math.sqrt(0.9), math.sqrt(0.1))
        assert report.which_way_value == pytest.approx(0.8, rel=1e-12)
        assert report.visibility == pytest.approx(0.6, rel=1e-12)
        assert report.duality_sum == pytest.approx(1.0, abs=1e-12)

    def test_detected_fraction_is_one(self):
        assert asymmetric_duality(0.8, 0.45).meta["detected_fraction"] == 1.0

    def test_rejects_bad_amplitudes(self):
        with pytest.raises(ValueError):
            asymmetric_duality(0.0, 0.0)
        with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 > 0"):
            asymmetric_duality(1e-200, 1e-200)
        with pytest.raises(ValueError):
            asymmetric_duality(-0.5, 0.5)
        with pytest.raises(ValueError):
            asymmetric_duality(math.nan, 0.5)

    @given(a=st.floats(min_value=1e-3, max_value=1.0),
           b=st.floats(min_value=1e-3, max_value=1.0))
    def test_sum_saturates_identically(self, a, b):
        report = asymmetric_duality(a, b)
        assert report.duality_sum == pytest.approx(1.0, abs=1e-12)
        assert report.inequality_satisfied
