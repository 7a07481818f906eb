"""Shared test helpers."""

from pathlib import Path

from e8voa.codes import data_dir
from e8voa.griess import sqrt2_root_context  # noqa: F401


def data_copy(directory, corruptions=()):
    """Copy the data files into directory, applying the first match of each
    (file, old, new) replacement; every old text must be in its file."""
    texts = {path.name: path.read_text() for path in Path(data_dir()).glob("*.txt")}
    for name, old, new in corruptions:
        assert old in texts[name], (name, old)
        texts[name] = texts[name].replace(old, new, 1)
    for name, text in texts.items():
        (Path(directory) / name).write_text(text)
    return directory
