"""Small multipliers with odd binary weight, constructively.

For every positive k there is an n no larger than (odd part of k) + 4 such
that k*n has odd binary weight. This package builds such an n case by case
from the run structure of k, checks it against a brute-force oracle, extends
the question to digit sums in arbitrary bases, and scans ranges of k while
verifying every claimed invariant as it goes.

The package exports every name in its modules' __all__: each is declared
once, in its module, and imported here by `import *`.
"""

import importlib

from .digitcore import *
from .genbase import *
from .oracle import *
from .scanner import *
from .witness import *

__version__ = "0.1.0"

# cli's names load cli, and with it argparse and json, on first use (PEP 562)
_CLI_NAMES = ("main", "parse_certificate", "run", "serialize_certificate")

# each `from .x import *` above has bound the submodule x here as well, as in asyncio/__init__.py
__all__ = digitcore.__all__ + genbase.__all__ + oracle.__all__ + scanner.__all__ + witness.__all__ + [*_CLI_NAMES]


def __getattr__(name: str):
    if name == "cli" or name in _CLI_NAMES:
        # import_module, as `from . import cli` would look cli up here again
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
