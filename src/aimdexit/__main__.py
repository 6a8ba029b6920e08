"""``python -m aimdexit``: the same command line as the ``aimdexit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
