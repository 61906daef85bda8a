"""Run the schurlie command line as `python -m schurlie`."""
from .cli import main

raise SystemExit(main())
