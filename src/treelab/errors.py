"""Exception taxonomy shared by the library and the CLI exit-code mapping,
plus the two document conversions: `parse` for input values, `jsonable` for
output."""

import math

import numpy as np


class TreelabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TreelabError, ValueError):
    """Malformed input: bad spec, bad law, bad arguments.  CLI exit code 2."""


class ResourceCapError(TreelabError, RuntimeError):
    """A size guardrail was hit (vertex budget, convolution cap, walk step
    cap).  CLI exit code 3."""


class UnsupportedCaseError(TreelabError, ValueError):
    """Input falls in a case this package deliberately does not handle.  CLI exit code 4."""


def parse(convert, value, what: str):
    """convert(value), with a ValueError, TypeError or OverflowError raised as
    a ValidationError naming `what` (a malformed value in an input document)."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad {what}: {exc}") from None


def jsonable(v):
    """v ready for strict JSON (RFC 8259): non-finite floats as the strings
    "inf", "-inf" and "nan", numpy scalars as Python values, and lists,
    tuples and dicts converted item by item."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if isinstance(v, dict):
        return {k: jsonable(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(u) for u in v]
    return v
