"""Entry point for `python -m relaysim`, the same CLI as `relaysim`."""

import sys

from relaysim.io import main

sys.exit(main())
