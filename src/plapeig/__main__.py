"""`python -m plapeig`: the command-line front end (see `plapeig.cli`)."""

from .cli import entry

if __name__ == "__main__":
    entry()
