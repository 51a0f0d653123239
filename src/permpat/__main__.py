"""``python -m permpat``: the command-line front end of ``permpat.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
