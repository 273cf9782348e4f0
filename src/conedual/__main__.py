"""``python -m conedual``: the same command line as ``python -m conedual.cli``."""
from .cli import main
raise SystemExit(main())
