"""Small multipliers with odd binary weight, constructively.

For every positive k there is an n no larger than (odd part of k) + 4 such
that k*n has odd binary weight. This package builds such an n case by case
from the run structure of k, checks it against a brute-force oracle, extends
the question to digit sums in arbitrary bases, and scans ranges of k while
verifying every claimed invariant as it goes.

The package exports every name in its modules' __all__, each declared once,
in its module. `import tmwitness` loads none of them: a name, a submodule,
__all__ and dir() each load what they need on first use (PEP 562), and the
name found is bound here, so the next lookup is a plain attribute.
"""

import importlib

__version__ = "0.1.0"

# searched in this order, each after the modules it imports
_MODULES = ("digitcore", "witness", "oracle", "scanner", "genbase", "cli")


def _load(module: str):
    # import_module, as `from . import x` would look x up here again; importing binds x here
    return importlib.import_module(f".{module}", __name__)


def __getattr__(name: str):
    if name in _MODULES:
        return _load(name)
    if name == "__all__":
        value = [public for module in _MODULES for public in _load(module).__all__]
    else:
        # no public name starts with _, so a probe for one, such as __wrapped__, loads nothing
        for module in () if name.startswith("_") else map(_load, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    # __all__ first, as loading it binds the submodules here; dir() sorts the names
    return {*__getattr__("__all__"), *globals()}
