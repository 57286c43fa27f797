"""Solvers for common solutions of equilibrium-problem systems.

Hybrid outer-approximation methods that avoid extragradient corrector
steps (each iteration solves one proximal subproblem per equilibrium
problem and projects a fixed anchor onto cutting halfspaces), two
classical baselines for comparison, and a harness that certifies the
per-iteration inequalities behind the convergence guarantees.  The top
level holds the names of README's "Library use"; every other name is
imported from its module, e.g. ``csepsolve.harness.run``.
"""

# Set before the submodules load: the harness records it in run summaries.
__version__ = "0.1.0"

from .geometry import Box
from .problems import AffineOperator, CsepInstance, SingletonSolution, ViInducedBifunction
from .hybrid import HybridParams, run_parallel_hybrid
from .harness import register_blackbox
