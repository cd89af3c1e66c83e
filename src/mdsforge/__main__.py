"""`python -m mdsforge`: the same command line as the `mdsforge` script."""

import sys

from .cli import main

sys.exit(main())
