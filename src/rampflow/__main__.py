"""``python -m rampflow``: the ``rampflow`` command (see ``rampflow.cli``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
