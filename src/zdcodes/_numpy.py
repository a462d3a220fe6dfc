"""numpy for the ring modules, its import run on first attribute access.

Only rings use numpy, so a command that builds none (trees, paths, cycles,
graph files) never pays for its import.  The ring modules read `np.<name>`
inside functions alone, never at import time.  A missing numpy still fails
here, at import, as `import numpy` would.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
