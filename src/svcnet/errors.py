"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Shapes, layouts, or network wiring are inconsistent."""


class DataError(ValueError):
    """Input data is empty, missing, or otherwise unusable."""


class CorpusFormatError(DataError):
    """A corpus file failed to parse; carries the file's path and the
    offending line number."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}: line {line_number}: {message}")
        self.path = path
        self.line_number = line_number
