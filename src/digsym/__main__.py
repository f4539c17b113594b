"""``python -m digsym``: the ``digsym`` command line."""

import sys

from .cli import main

sys.exit(main())
