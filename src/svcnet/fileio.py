"""Small file helpers: atomic text writes, exact float formatting and
header fields."""

import os
import tempfile

from .errors import StructuralError


def fmt_float(v):
    """Full-precision decimal string that round-trips exactly through float()."""
    return repr(float(v))


def atomic_write_text(path, text):
    """Write text to path so that a failure never leaves a partial file."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def int_fields(path, items, names):
    """Integer values of the `name=value` header items named in `names`,
    in that order; StructuralError naming `path` if one is missing or not
    an integer."""
    fields = dict(item.partition("=")[::2] for item in items)
    try:
        return [int(fields[name]) for name in names]
    except (KeyError, ValueError):
        wanted = ", ".join(f"{name}=<int>" for name in names)
        raise StructuralError(f"{path}: header needs {wanted}") from None
