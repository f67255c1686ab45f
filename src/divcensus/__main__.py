"""`python -m divcensus ...` runs the command-line interface."""

from .cli import entry_point

entry_point()
