"""File helpers: atomic text writes, exact float formatting, reading input
files, and the one model-file format.

A model file is a header line `svcnet-<kind> v2 key=value ...` (list values
comma-joined), then named float arrays: a line `<name> <dims>` (one dim for
a vector, two for a matrix) and one line per matrix row, values written
with `fmt_float` so they round-trip exactly.
"""

import os
import tempfile

import numpy as np

from .errors import DataError, StructuralError


def fmt_float(v):
    """Full-precision decimal string that round-trips exactly through float()."""
    return repr(float(v))


def atomic_write_text(path, text):
    """Write text to path so that a failure never leaves a partial file."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_text(path):
    """The text of a UTF-8 input file; DataError naming `path` if it is not UTF-8."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None


def is_digits(text):
    """Whether `text` is ASCII decimal digits only (`+1`, ` 1`, `1_0` and
    `١` are not, though int() reads them)."""
    return text.isascii() and text.isdigit()


def parse_int(text):
    """The integer of `text` in ASCII decimal digits, the only form written."""
    if not is_digits(text):
        raise ValueError(f"{text!r} is not written in ASCII digits")
    return int(text)


def str_list(text):
    return tuple(text.split(","))


def write_arrays(path, kind, fields, arrays):
    """Write a model file: `fields` maps names to a value or a tuple of
    values, `arrays` maps names to 1-D or 2-D float arrays, in file order.
    A value whose text holds whitespace, ',' or '=' would not read back
    as written, so it is refused (DataError) before anything is written."""
    head = [f"svcnet-{kind} v2"]
    for name, value in fields.items():
        values = [str(v) for v in (value if isinstance(value, tuple) else (value,))]
        for text in values:
            if any(c in ",=" or c.isspace() for c in text):
                raise DataError(f"{path}: {name} value {text!r} has whitespace, ',' or '='")
        head.append(f"{name}={','.join(values)}")
    lines = [" ".join(head)]
    for name, arr in arrays.items():
        lines.append(" ".join([name] + [str(d) for d in arr.shape]))
        lines.extend(" ".join(fmt_float(v) for v in row) for row in np.atleast_2d(arr))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_arrays(path, kind, parsers, build):
    """build({name: parsers[name](field text)}, {name: array, in file order})
    for the model file at `path`. Malformed or non-finite content, and any
    ValueError from a parser or `build`, raise StructuralError naming `path`."""
    lines = read_text(path).splitlines()
    try:
        return build(*_parse(lines, kind, parsers))
    except ValueError as e:
        raise StructuralError(f"{path}: {e}") from None


def _parse(lines, kind, parsers):
    head = lines[0].split() if lines else []
    if head[:2] != [f"svcnet-{kind}", "v2"]:
        raise StructuralError(f"not an svcnet-{kind} v2 file")
    items = dict(item.partition("=")[::2] for item in head[2:])
    fields = {}
    for name, parse in parsers.items():
        try:
            fields[name] = parse(items[name])
        except (KeyError, ValueError):
            raise StructuralError(f"header needs a valid {name}= field") from None
    arrays = {}
    pos = 1
    while pos < len(lines):
        name, *dims = lines[pos].split() or [""]
        shape = tuple(int(d) for d in dims if is_digits(d) and int(d) > 0)
        if not name or name in arrays or len(dims) not in (1, 2) or len(shape) != len(dims):
            raise StructuralError(f"line {pos + 1}: bad array header {lines[pos][:40]!r}")
        n_rows = shape[0] if len(shape) == 2 else 1
        texts = lines[pos + 1 : pos + 1 + n_rows]
        rows = [ln.split() for ln in texts]
        if len(rows) < n_rows:
            raise StructuralError(f"truncated: {name} needs {n_rows} rows, {len(rows)} left")
        if any(len(row) != shape[-1] for row in rows):
            raise StructuralError(f"{name}: rows are not of shape {shape}")
        values = []
        for line, (text, row) in enumerate(zip(texts, rows), pos + 2):
            try:
                if not text.isascii() or "_" in text:  # float() reads `1_0` and `٢` too
                    raise ValueError(f"not a row of ASCII floats without '_': {text[:40]!r}")
                values.append([float(v) for v in row])
            except ValueError as e:
                raise StructuralError(f"line {line}: {name}: {e}") from None
        arr = np.array(values).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise StructuralError(f"{name}: non-finite value")
        arrays[name] = arr
        pos += 1 + n_rows
    return fields, arrays


def check_shapes(arrays, shapes):
    """StructuralError unless `arrays` has exactly the names, order and shapes of `shapes`."""
    found = {name: arr.shape for name, arr in arrays.items()}
    if list(found.items()) != list(shapes.items()):
        raise StructuralError(f"arrays {found}, expected {shapes}")
