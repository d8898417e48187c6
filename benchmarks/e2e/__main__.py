"""``python -m benchmarks.e2e`` is ``python3 benchmarks/e2e/run.py``."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
