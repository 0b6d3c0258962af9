"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one type at the boundary.  The XQuery-facing errors
carry the W3C-style error codes (``err:XPST0003`` etc.) where a natural
counterpart exists, because users of a real XQuery engine grep for those.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class RegionError(ReproError):
    """An invalid region was constructed or parsed (e.g. ``start > end``)."""


class XMLSyntaxError(ReproError):
    """The XML tokenizer or parser rejected the input document.

    Carries the 1-based ``line`` and ``column`` of the offending position.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ShredError(ReproError):
    """The relational shredder met a document it cannot encode."""


class StorageFormatError(ReproError):
    """An on-disk store file is unreadable: bad magic, unsupported
    format version, truncated file, corrupt header, a blob failing its
    checksum, or columns that do not encode a document.  Raised by
    :mod:`repro.storage` (and by the columns -> DOM pass it feeds) so
    callers never see a cryptic NumPy/JSON error for a damaged store."""


class UnknownKernelError(ReproError, ValueError):
    """An unregistered join family or kernel name was requested.

    Raised by :class:`repro.config.KernelRegistry` lookups; the message
    lists the valid choices (families, or kernels of the named family).
    Subclasses :class:`ValueError` so callers that predate the dedicated
    type keep working.
    """


class XQueryError(ReproError):
    """Base class for XQuery static and dynamic errors.

    :param code: W3C-style error code such as ``err:XPST0003``; ``None``
        for errors that have no standard counterpart (e.g. subset limits).
    """

    def __init__(self, message: str, code: str | None = None):
        self.code = code
        if code:
            message = f"[{code}] {message}"
        super().__init__(message)


class XQuerySyntaxError(XQueryError):
    """Static error: the query text is not in our XQuery subset grammar."""

    def __init__(self, message: str, line: int = 0, column: int = 0,
                 code: str = "err:XPST0003"):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message, code=code)


class XQueryStaticError(XQueryError):
    """Static error other than a syntax error (unknown function, etc.)."""


class XQueryTypeError(XQueryError):
    """Dynamic type error (e.g. atomizing a sequence of length > 1)."""

    def __init__(self, message: str, code: str = "err:XPTY0004"):
        super().__init__(message, code=code)


class XQueryDynamicError(XQueryError):
    """Dynamic evaluation error (undefined variable, div by zero, ...)."""


class UnsupportedFeatureError(XQueryError):
    """The query uses a feature outside the implemented XQuery subset."""


class BenchmarkTimeout(BaseException):
    """An experiment exceeded its DNF (did-not-finish) budget.

    Deliberately *not* a ``ReproError`` (nor an ``Exception``): the DNF
    harness raises it asynchronously from a ``SIGALRM`` handler, so it
    can surface at any bytecode boundary — including inside a broad
    ``except Exception`` in the lexer or evaluator, which would swallow
    the interrupt and misreport it as a library error.  Like
    ``KeyboardInterrupt``, it derives from ``BaseException`` so only
    the harness's explicit handlers catch it.
    """

    def __init__(self, message: str, budget_seconds: float):
        self.budget_seconds = budget_seconds
        super().__init__(message)
