"""Exact-arithmetic helpers.

Index values, percentages and thresholds are kept as :class:`Fraction`
internally so equality properties hold exactly; floats only appear at
the rendering boundary.
"""

from fractions import Fraction

__all__ = ["as_fraction", "format_fixed"]


def as_fraction(value) -> Fraction:
    """Convert to Fraction, reading floats as their decimal literal.

    ``as_fraction(0.9) == Fraction(9, 10)``, not the binary approximation
    that ``Fraction(0.9)`` would produce.  Ints, strings like ``"0.15"``
    and existing Fractions pass through exactly.
    """
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def format_fixed(value, places: int) -> str:
    """Render an exact rational with a fixed number of decimal places.

    Rounding is exact (ties to even); no float ever enters the path, so
    output bytes are stable across platforms.
    """
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return _fixed(value.numerator, value.denominator, places)


def _fixed(num: int, den: int, places: int) -> str:
    """:func:`format_fixed` of num / den, for integers with ``den`` >= 1 and
    not necessarily in lowest terms."""
    scale = 10**places
    # Floor division, so the remainder is non-negative for either sign.
    n, remainder = divmod(num * scale, den)
    twice = 2 * remainder
    if twice > den or (twice == den and n % 2):
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    if places == 0:
        return f"{sign}{n}"
    return f"{sign}{n // scale}.{n % scale:0{places}d}"
