"""``python -m eqshares``: the command-line interface."""
from .cli import main

raise SystemExit(main())
