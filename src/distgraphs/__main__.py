"""`python -m distgraphs`: the command-line interface, as the installed
`distgraphs` script runs it."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
