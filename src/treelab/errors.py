"""Exception taxonomy shared by the library and the CLI exit-code mapping."""


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
