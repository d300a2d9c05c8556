"""``python -m qndsim``: the ``qndsim`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
