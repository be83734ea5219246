"""``python -m tamari``: the same command line as the ``tamari`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
