"""Markov densities, trace-preserving operators, measurements, chains and OOMs.

The toolkit models system states as Hermitian trace-1 matrices whose outcome
statistics may carry negative components, evolves them with trace-preserving
superoperators, and asks when measurements are statistically observable.  On
top of that sit Cesaro limits of Markov chains, quantum walks on directed
graphs, hidden-state tables with a Bell inequality check, and observable
operator models with an explicit hidden-state lift.

The package re-exports every name in its modules' ``__all__``, so each
public name is declared once, in the module that defines it.  The package
attribute ``walk`` is the function, bound over the submodule of the same
name, so ``from qmarkov import walk`` and ``import qmarkov.walk as m`` both
give the function; the module is ``sys.modules["qmarkov.walk"]``.
"""

from . import chain, hermitian, hidden, measurement, oom, operators
from . import walk as _walk
from .hermitian import *
from .operators import *
from .measurement import *
from .chain import *
from .walk import *
from .hidden import *
from .oom import *

__version__ = "0.1.0"

__all__ = [
    *hermitian.__all__,
    *operators.__all__,
    *measurement.__all__,
    *chain.__all__,
    *_walk.__all__,
    *hidden.__all__,
    *oom.__all__,
]
