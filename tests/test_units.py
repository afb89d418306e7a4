import pytest

from hpcbench.units import fmt_bytes_per_s, fmt_flops, fmt_seconds, si_scaled


@pytest.mark.parametrize("value, expected", [
    (2.5e15, (2.5, "P")), (-3e12, (-3.0, "T")), (1e3, (1.0, "k")),
    (999.0, (999.0, "")), (0.0, (0.0, ""))])
def test_si_scaled(value, expected):
    assert si_scaled(value) == expected


def test_rates_below_a_thousand_carry_no_prefix():
    assert fmt_flops(999.0) == "999.00 FLOPS"
    assert fmt_bytes_per_s(12.5) == "12.50 B/s"
    assert fmt_flops(120e12) == "120.00 TFLOPS"
    assert fmt_bytes_per_s(300e9) == "300.00 GB/s"


@pytest.mark.parametrize("seconds, expected", [
    (7200.0, "2.00 h"), (3600.0, "1.00 h"), (90.0, "1.50 min"),
    (60.0, "1.00 min"), (12.5, "12.50 s"), (1.0, "1.00 s"),
    (0.25, "250.00 ms")])
def test_fmt_seconds_picks_the_unit(seconds, expected):
    assert fmt_seconds(seconds) == expected
