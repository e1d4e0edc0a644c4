"""Exception types shared across the package."""


class TepError(Exception):
    """Base class for all library-specific errors."""


class ParseError(TepError):
    """A text input (instance, allocation, or profile file) is malformed.

    ``code`` identifies the diagnostic: "syntax", "duplicate-outcome",
    "duplicate-item", "endowment", or "index-range".
    """

    def __init__(self, code: str, message: str, line: int | None = None,
                 column: int | None = None):
        self.code = code
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{code}: {message}{where}")


class OracleLimitError(TepError):
    """A problem is larger than the configured bound for an exact scan."""


class BudgetExceededError(TepError):
    """A search exhausted its node budget or report-space cap."""


class ProofError(TepError):
    """A replayed case analysis failed to close a branch."""
