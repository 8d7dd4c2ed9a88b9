"""Exact probability arithmetic helpers.

All probabilities in this library are :class:`fractions.Fraction` values so
that possible-world semantics, event inference and Bayesian conditioning are
*exact*: world probabilities sum to exactly 1, conditioning is exact Bayes,
and tests can assert equality instead of tolerances.  Floats are accepted at
API boundaries and converted, and only turned back into floats for display.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import ProbabilityError

ProbLike = Union[Fraction, int, float, str]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# Floats are converted through ``Fraction(str(x))`` by default (so 0.1 means
# the decimal 1/10, not the binary float), capped at this many denominator
# digits to keep user-supplied values tidy.
_FLOAT_DENOMINATOR_LIMIT = 10**9


def as_probability(value: ProbLike, *, allow_zero: bool = True) -> Fraction:
    """Coerce ``value`` to an exact probability in [0, 1].

    Accepts :class:`Fraction`, :class:`int`, :class:`float` and strings such
    as ``"1/3"`` or ``"0.25"``.  Raises :class:`ProbabilityError` when the
    value is outside [0, 1] (or equals 0 while ``allow_zero`` is false).

    >>> as_probability("1/3")
    Fraction(1, 3)
    >>> as_probability(0.5)
    Fraction(1, 2)
    """
    if isinstance(value, Fraction):
        prob = value
    elif isinstance(value, bool):
        raise ProbabilityError(f"booleans are not probabilities: {value!r}")
    elif isinstance(value, int):
        prob = Fraction(value)
    elif isinstance(value, float):
        try:
            prob = Fraction(str(value)).limit_denominator(_FLOAT_DENOMINATOR_LIMIT)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProbabilityError(f"not a probability: {value!r}") from exc
    elif isinstance(value, str):
        try:
            prob = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProbabilityError(f"not a probability: {value!r}") from exc
    else:
        raise ProbabilityError(f"cannot interpret {value!r} as a probability")

    # A Fraction's denominator is positive, so its integers decide the
    # range without Fraction comparisons (every Possibility pays this).
    numerator = prob.numerator
    if numerator < 0 or numerator > prob.denominator:
        raise ProbabilityError(f"probability {prob} outside [0, 1]")
    if numerator == 0 and not allow_zero:
        raise ProbabilityError("probability must be strictly positive")
    return prob


def format_probability(prob: Fraction, *, digits: int = 4) -> str:
    """Render a probability as a compact decimal string, e.g. ``0.9667``."""
    return f"{float(prob):.{digits}f}"


def format_percent(prob: Fraction, *, digits: int = 0) -> str:
    """Render a probability as a percentage, e.g. ``97%`` — the paper's
    ranked-answer display format (§VI)."""
    return f"{float(prob) * 100:.{digits}f}%"


def normalize(weights: Iterable[Fraction]) -> list[Fraction]:
    """Scale non-negative weights so they sum to exactly 1.

    Raises :class:`ProbabilityError` when the weights are all zero (nothing
    to normalise) or any weight is negative.
    """
    values = list(weights)
    if any(w < 0 for w in values):
        raise ProbabilityError("weights must be non-negative")
    total = sum(values, ZERO)
    if total == 0:
        raise ProbabilityError("cannot normalise: total weight is zero")
    # impreciselint: disable=float-taint -- exact Fraction/Fraction division
    return [w / total for w in values]


def check_distribution(probs: Iterable[Fraction], *, strict: bool = True) -> None:
    """Validate that ``probs`` forms a (sub-)distribution.

    With ``strict`` the probabilities must sum to exactly 1; otherwise any
    total in (0, 1] is accepted (the layered model allows sub-distributions
    only transiently, during construction).
    """
    values = list(probs)
    if not values:
        raise ProbabilityError("a distribution needs at least one probability")
    for prob in values:
        if prob < 0 or prob > 1:
            raise ProbabilityError(f"probability {prob} outside [0, 1]")
    total = sum(values, ZERO)
    if strict and total != 1:
        raise ProbabilityError(f"probabilities sum to {total}, expected 1")
    if not strict and (total <= 0 or total > 1):
        raise ProbabilityError(f"probabilities sum to {total}, expected (0, 1]")
