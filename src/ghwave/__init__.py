"""Sampled-attractor geometry for damped waves on perturbed domains.

The building blocks, in dependency order: `domains` (diffeomorphisms of a
reference interval/rectangle and their pullback coefficient fields),
`operators` (P1/Q1 mass and stiffness assembly plus norms), `dynamics` (IMEX
time stepping of phase-space states, each one array z = (u; v), energy
envelopes, attractor sampling), `ghmetric` (finite
Gromov-Hausdorff machinery, static and dynamical), and `harness` (the
continuity/stability/estimate studies behind the `ghwave` CLI).
"""

__version__ = "0.1.0"

from .domains import (  # noqa: E402,F401
    DiffeoMap,
    ReferenceDomain,
    c2_distance,
    make_pullback,
)
from .operators import (  # noqa: E402,F401
    DiscreteOperator,
    Mesh,
    NonlinearitySpec,
    assemble_operators,
    default_nonlinearity,
    identity_operator,
)
from .dynamics import (  # noqa: E402,F401
    SamplerConfig,
    WaveIntegrator,
    sample_attractor,
)
from .ghmetric import (  # noqa: E402,F401
    dgh_dynamical,
    gh_exact,
    gh_lower,
    gh_upper,
)
