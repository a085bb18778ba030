"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A caller-supplied parameter is out of range or unusable."""


class StructureError(ValueError):
    """A data structure violates its own invariants (arity mismatch, empty base)."""


class CorpusParseError(ParameterError):
    """Text input is malformed; carries the 1-based line number. The message
    leads with the source's name, when given, and the line."""

    def __init__(self, message: str, line_no: int | None = None,
                 source: str | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)


class EmptyCorpusError(CorpusParseError):
    """Input contained no sentences at all."""


class ModelFormatError(ValueError):
    """A model file has bad magic bytes, an unsupported version, or truncated
    or out-of-range data."""
