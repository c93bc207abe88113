"""Exact rational scalars: parsing, formatting, and integer roots.

Every scalar in this package's interface is a ``fractions.Fraction``.
Floats are accepted at the boundary and converted to the exact dyadic
rational they denote, so no rounding ever happens after input.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

__all__ = [
    "rationalize",
    "parse_rational",
    "format_rational",
    "nth_root_exact",
    "nth_root_floor",
    "MAX_DECIMAL_EXPONENT",
]

MAX_DECIMAL_EXPONENT = 10_000
# An unreadable literal longer than this is echoed as a prefix and a length.
_ECHO_CHARS = 40


def rationalize(value: int | float | str | Fraction) -> Fraction:
    """Convert a scalar to an exact Fraction.

    Strings go through :func:`parse_rational`.  Floats become the exact
    dyadic rational they store (no decimal reinterpretation).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: 'p/q', an integer, or a decimal string.

    A decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` in magnitude is
    refused: the literal stays short while the value it denotes, and the
    cost of building it, grows without bound.  The message for a literal
    that cannot be read echoes at most ``_ECHO_CHARS`` of it, and names
    Python's integer digit limit when that is the cause.
    """
    token = text.strip()
    if not token:
        raise ValueError("empty rational literal")
    _, marker, exponent = token.lower().rpartition("e")
    try:
        if marker and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        message = f"bad rational literal {token!r}"
        if len(token) > _ECHO_CHARS:
            message = f"bad rational literal {token[:_ECHO_CHARS]!r}... ({len(token)} characters)"
        if str(exc).startswith("Exceeds the limit"):
            message += f": exceeds the {sys.get_int_max_str_digits()}-digit limit"
        raise ValueError(message) from exc


def format_rational(value: Fraction) -> str:
    """Format as 'p/q', or plain 'p' for integers.

    Python refuses to turn an integer of more than
    ``sys.get_int_max_str_digits()`` digits (4300 by default) into text; such
    a value raises ``ValueError`` naming that limit.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"output number exceeds the {limit}-digit limit for printing integers"
        ) from None


def nth_root_floor(x: int, n: int) -> int:
    """floor(x ** (1/n)) for non-negative integer x, by Newton iteration."""
    if n <= 0:
        raise ValueError("root order must be positive")
    if x < 0:
        raise ValueError("negative radicand")
    if x < 2 or n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    # From 2**ceil(bits/n), up to twice the root, Newton shrinks by only
    # about 1 - 1/n a step.  Start 2**-24 above a float estimate of the root
    # instead (its error is far smaller), and fall back should it miss.
    log_root = math.log2(x) / n
    shift = max(0, int(log_root) - 60)
    guess = (int(2.0 ** (log_root - shift) * (1 + 2.0**-24)) + 1) << shift
    if guess**n <= x:
        guess = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        better = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if better >= guess:
            break
        guess = better
    while guess**n > x:
        guess -= 1
    return guess


def nth_root_exact(value: Fraction, n: int) -> Fraction | None:
    """The exact rational n-th root of ``value``, or None when irrational."""
    if value < 0:
        raise ValueError("negative radicand")
    p = nth_root_floor(value.numerator, n)
    q = nth_root_floor(value.denominator, n)
    if p**n == value.numerator and q**n == value.denominator:
        return Fraction(p, q)
    return None
