"""`python -m sumprodlab ...` runs the sumprod-lab command line from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
