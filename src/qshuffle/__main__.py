"""``python -m qshuffle``: the same command line as the ``qshuffle`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
