"""``python -m payoffopt``: the same command line as the ``payoffopt`` script."""

from .cli import main

main()
