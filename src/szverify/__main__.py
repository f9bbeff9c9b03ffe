"""``python -m szverify``: the command line of ``szverify.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
