"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Shapes, layouts, or network wiring are inconsistent."""


class DataError(ValueError):
    """Input data is empty, missing, or otherwise unusable."""


class CorpusFormatError(DataError):
    """A corpus file failed to parse; carries the offending line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
