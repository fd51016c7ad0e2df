"""``python -m gaplab``: the same command line as the ``gaplab`` script."""

import sys

from .runner import main

if __name__ == "__main__":
    sys.exit(main())
