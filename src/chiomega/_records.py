"""The JSON boundary: the one field reader, the one encoder, and the table files."""

from __future__ import annotations

import json
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


def dumps(obj) -> str:
    """One JSON line with sorted keys; NaN and infinities are refused."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def read_fields(obj, where: str, *fields) -> list:
    """The values of ``fields``, each ``(name, type)`` or ``(name, type, default)``,
    in the JSON object ``obj``. A value must have exactly its type: 3.9 and true
    are not ints, "false" is not a bool. ``where`` prefixes every error.
    """
    if type(obj) is not dict:
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    values = []
    for name, kind, *default in fields:
        if name not in obj and not default:
            raise ValueError(f"{where}: missing field {name!r}")
        value = obj.get(name, *default)
        if name in obj and type(value) is not kind:
            raise ValueError(f"{where}: field {name!r} must be {kind.__name__}, got {value!r}")
        values.append(value)
    return values


def write_records(objs: Iterable[dict], path) -> None:
    """Write objects as a JSON array, one sorted-key object per line."""
    lines = ",\n".join("  " + dumps(obj) for obj in objs)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("[\n" + lines + "\n]\n")


def read_records(path) -> list[tuple[str, object]]:
    """The entries of a JSON array file, each paired with the place it came from."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    return [(f"{path}: record {i + 1}", obj) for i, obj in enumerate(data)]


def load_packaged(name: str, load: Callable[[object], T]) -> T:
    """``load`` applied to the data file ``name`` shipped with the package."""
    import importlib.resources as resources

    source = resources.files(__package__).joinpath(f"data/{name}")
    with resources.as_file(source) as path:
        return load(path)
