"""``python -m sobolev_glue``: the same command line as the ``sobolev-glue`` script."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
