"""Shared exception types, and the one rule every numeric argument is read by."""

import math

import numpy as np


class RelBeliefError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RelBeliefError):
    """An input violates a documented precondition (bad parameter, empty event,
    zero-probability conditioning, out-of-range interest value, and so on)."""


class DesignSearchError(DomainError):
    """No sample size on the search grid met the bias targets.

    Carries the full table of evaluated reports in ``reports`` so the caller
    can inspect how far each candidate fell short.
    """

    def __init__(self, message, reports):
        super().__init__(message)
        self.reports = reports


def _shown(value) -> str:
    """``value`` as a message shows it: a numpy scalar as its Python value,
    and an int beyond 64 bits by its size, not by its digits."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    return repr(value)


def _real_arg(value, name: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``value`` as a float: a Python or numpy int or float, never a bool,
    that is finite and lies strictly between ``lo`` and ``hi``.  Anything
    else is a domain error naming ``name``.  The exact types float and int
    are tested first: every config value passes here."""
    kind = type(value)
    if kind is float or kind is int or (kind is not bool and isinstance(value, (int, np.integer, np.floating))):
        try:
            real = float(value)
        except OverflowError:  # an int beyond the float range
            real = math.inf
    else:
        real = math.nan
    if lo < real < hi:  # refuses NaN and the infinities whatever the bounds
        return real
    if math.isfinite(real):
        raise DomainError(f"{name} must lie in ({lo!r}, {hi!r}), got {_shown(value)}")
    raise DomainError(f"{name} must be a finite real number, got {_shown(value)}")


def _whole_arg(value, name: str, lo, hi=None) -> int:
    """``value`` as an int: a Python or numpy int, or a float with no
    fraction, never a bool, with ``lo <= value`` and, given ``hi``,
    ``value < hi``.  Anything else is a domain error naming ``name``."""
    kind = type(value)
    if kind is int:
        whole = value
    elif (kind is float or isinstance(value, np.floating)) and value.is_integer():  # not NaN or an infinity
        whole = int(value)
    elif kind is not bool and isinstance(value, (int, np.integer)):
        whole = int(value)
    else:
        raise DomainError(f"{name} must be a whole number, got {_shown(value)}")
    if lo <= whole and (hi is None or whole < hi):
        return whole
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
    raise DomainError(f"{name} must be a whole number {bounds}, got {_shown(value)}")


def _bool_arg(value, name: str) -> bool:
    """``value`` as a bool: a Python or numpy bool, nothing that merely has
    a truth value.  Anything else is a domain error naming ``name``."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise DomainError(f"{name} must be a bool, got {_shown(value)}")
