"""``python -m idemx``: the command-line front end, as the ``idemx`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
