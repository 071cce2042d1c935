"""``python -m wellcovered``: the ``wellcovered`` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
