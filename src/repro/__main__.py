"""``python -m repro <verb>``: the ``repro`` command without installing."""
import sys

from .cli import main

sys.exit(main())
