"""The LAPACK routines the solver calls, from scipy's compiled wrappers.

`scipy.linalg._flapack` is loaded without running `scipy/linalg/__init__.py`,
whose imports take longer than all of detrep's.  The extension registers
itself in `sys.modules`, so a later `import scipy.linalg` reuses this module
object and its routines.
"""

import importlib.util
import os
from importlib import machinery

import scipy  # top level only: it locates the DLLs bundled with Windows wheels

_LINALG = os.path.join(scipy.__path__[0], "linalg")
_loaders = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
_spec = machinery.FileFinder(_LINALG, _loaders).find_spec("scipy.linalg._flapack")
if _spec is None:
    raise ImportError(f"scipy's LAPACK extension _flapack not found in {_LINALG}")
_flapack = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_flapack)
zgeev, zggev = _flapack.zgeev, _flapack.zggev
