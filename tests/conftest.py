"""Shared test helpers."""

from e8voa.griess import sqrt2_root_context  # noqa: F401
