"""JSON-array record files: the on-disk form of the ratio and bounds tables."""

from __future__ import annotations

import json
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


def write_records(objs: Iterable[dict], path) -> None:
    """Write objects as a JSON array, one sorted-key object per line."""
    lines = ",\n".join("  " + json.dumps(obj, sort_keys=True) for obj in objs)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("[\n" + lines + "\n]\n")


def read_records(path) -> list[tuple[str, object]]:
    """The entries of a JSON array file, each paired with the place it came from."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    return [(f"{path}: record {i + 1}", obj) for i, obj in enumerate(data)]


def load_packaged(name: str, load: Callable[[object], T]) -> T:
    """``load`` applied to the data file ``name`` shipped with the package."""
    import importlib.resources as resources

    source = resources.files(__package__).joinpath(f"data/{name}")
    with resources.as_file(source) as path:
        return load(path)
