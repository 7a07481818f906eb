"""``python -m e8voa``: the same command line as the ``e8voa`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
