"""Unit conventions and presentation-layer formatting.

All quantities in this package are stored in base SI units: operation
counts in FLOPs, rates in FLOPS and bytes/s, times in seconds, power in
watts.  Decimal prefixes (1 GB = 1e9 bytes, 1 TFLOPS = 1e12 FLOPS) are
applied only when rendering, never when storing.  Loaders that consume
link speeds quoted in bits must divide by :data:`BITS_PER_BYTE`
explicitly; nothing in this package converts bits silently.
"""

KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12
PETA = 1e15

BITS_PER_BYTE = 8

_PREFIXES = [(PETA, "P"), (TERA, "T"), (GIGA, "G"), (MEGA, "M"), (KILO, "k")]


def si_scaled(value: float) -> tuple[float, str]:
    """Split a value into (scaled magnitude, decimal SI prefix)."""
    mag = abs(value)
    for factor, prefix in _PREFIXES:
        if mag >= factor:
            return value / factor, prefix
    return value, ""


def fmt_flops(value: float) -> str:
    return "{:.2f} {}FLOPS".format(*si_scaled(value))


def fmt_bytes_per_s(value: float) -> str:
    return "{:.2f} {}B/s".format(*si_scaled(value))


def fmt_seconds(value: float) -> str:
    for size, unit in ((3600, "h"), (60, "min"), (1, "s")):
        if value >= size:
            return f"{value / size:.2f} {unit}"
    return f"{value * 1e3:.2f} ms"
