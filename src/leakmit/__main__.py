"""``python -m leakmit``: the command line interface."""
from leakmit.cli import main
raise SystemExit(main())
