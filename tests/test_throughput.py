import pytest

from shiftadd_dvs.errors import ConfigurationError
from shiftadd_dvs.throughput import throughput_report


class TestPaperRounding:
    def test_headline_numbers(self):
        report = throughput_report(25112, 303e6, 0.256, 12.5, rounding="paper")
        assert report.inference_time_s == pytest.approx(0.083e-3, abs=1e-12)
        assert report.frames_per_period == 3084
        assert report.realtime_fiber_m == 38550.0

    def test_inference_time_rounded_to_three_decimals_of_ms(self):
        report = throughput_report(25112, 303e6, rounding="paper")
        assert report.inference_time_s * 1e3 == 0.083


class TestExactRounding:
    def test_full_precision_numbers(self):
        report = throughput_report(25112, 303e6, 0.256, 12.5, rounding="exact")
        assert report.inference_time_s == pytest.approx(25112 / 303e6, rel=1e-12)
        assert report.frames_per_period == 3088
        assert report.realtime_fiber_m == 38600.0

    def test_boundary_single_frame(self):
        # cycles = clock * period exactly -> exactly one frame per period
        report = throughput_report(250_000, 1e6, 0.25, 12.5, rounding="exact")
        assert report.frames_per_period == 1
        assert report.realtime_fiber_m == 12.5
        paper = throughput_report(250_000, 1e6, 0.25, 12.5, rounding="paper")
        assert paper.frames_per_period == 1


class TestInvariants:
    def test_fiber_is_frames_times_span(self):
        for cycles in (1000, 25112, 10 ** 6):
            for rounding in ("paper", "exact"):
                report = throughput_report(cycles, 303e6, rounding=rounding)
                assert report.realtime_fiber_m == report.frames_per_period * report.frame_span_m

    def test_frames_monotone_nonincreasing_in_cycles(self):
        for rounding in ("paper", "exact"):
            previous = None
            for cycles in range(1000, 200_000, 1373):
                frames = throughput_report(cycles, 303e6, rounding=rounding).frames_per_period
                if previous is not None:
                    assert frames <= previous
                previous = frames

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            throughput_report(0, 303e6)
        with pytest.raises(ConfigurationError):
            throughput_report(100, -1.0)
        with pytest.raises(ConfigurationError):
            throughput_report(100, 1e6, rounding="floor")

    @pytest.mark.parametrize("args", [
        (100, float("inf")), (100, float("nan")), (float("nan"), 303e6),
        (100, 303e6, float("inf")), (100, 303e6, 0.256, float("nan")), (10 ** 400, 303e6),
    ], ids=["clock-inf", "clock-nan", "cycles-nan", "period-inf", "span-nan", "cycles-huge"])
    def test_non_finite_inputs_rejected(self, args):
        with pytest.raises(ConfigurationError, match="must be finite"):
            throughput_report(*args)

    def test_time_rounding_to_zero_rejected(self):
        # 150 cycles at 303 MHz take 0.000495 ms, 0.000 ms at three decimals
        with pytest.raises(ConfigurationError, match=r"150 cycles at 303000000\.0 Hz"):
            throughput_report(150, 303e6, rounding="paper")
        assert throughput_report(150, 303e6, rounding="exact").frames_per_period == 517120

    def test_uncountable_frames_rejected(self):
        with pytest.raises(ConfigurationError, match="too short to count"):
            throughput_report(1, 1e300, frame_period_s=1e300, rounding="exact")

    def test_json_shape(self):
        doc = throughput_report(25112, 303e6).to_json()
        for key in ("cycles", "clock_hz", "inference_time_s", "frames_per_period",
                    "realtime_fiber_m", "rounding"):
            assert key in doc
