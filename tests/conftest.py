"""Shared test helpers."""

from pathlib import Path

import pytest

from e8voa.codes import MEMOS, clear_caches, data_dir
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


def assert_only_failed(clean, mutated, failed, prefix):
    """Every clean record passes; in mutated exactly the claims in failed
    fail, each with an actual that starts with prefix, and every other
    record is the clean one."""
    assert all(r["pass"] for r in clean)
    assert [r["claim"] for r in mutated if not r["pass"]] == failed
    assert all(r["actual"].startswith(prefix)
               for r in mutated if r["claim"] in failed)
    assert ([r for r in mutated if r["claim"] not in failed]
            == [r for r in clean if r["claim"] not in failed])


@pytest.fixture(scope="session")
def clean_verify_all():
    """(status, report, text) of verify-all on the package data.  A session
    fixture is set up before fresh_caches clears the memos, so it reads
    them warm."""
    from e8voa.cli import RunConfig, run
    return run(RunConfig("verify-all"))


@pytest.fixture
def fresh_caches():
    """Every registered memo empty for the test, and as it was after it."""
    saved = [(cached, dict(cached.memo)) for cached in MEMOS]
    clear_caches()
    yield
    clear_caches()
    for cached, memo in saved:
        cached.memo.update(memo)
