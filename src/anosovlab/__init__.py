"""anosovlab: surface-group representations into SO(p,p-1) at desk scale.

Builds the genus-2 octagon group, composes it with the principal
(2p-1)-dimensional representation of SL(2,R) embedded in SO(p,p), and
measures the quantitative structure of the result: eigenvalue flags and
their transversality, Margulis invariants of affine deformations, the
first-order eigenvalue/invariant identity, last-root length spectra,
entropy estimates, and Bowen-Margulis orbit averages.
"""

__version__ = "0.1.0"

from .surface_group import (  # noqa: F401
    GroupPresentation,
    CyclicWord,
    CocycleBasis,
    conjugacy_canonical,
    extend_cocycle,
    free_reduce,
    solve_cocycle_space,
)
from .fuchsian import (  # noqa: F401
    BallEnumeration,
    enumerate_ball,
    fixed_points,
    octagon_group,
    translation_length,
)
from .principal_rep import (  # noqa: F401
    EigenData,
    PrincipalBasis,
    QuadraticForm,
    Representation,
    eigendata_fuchsian,
    embed_so_pp,
    embedded_representation,
    invariant_form,
    principal_basis,
    sym_power_rep,
    sym_representation,
)
from .flag_geometry import (  # noqa: F401
    IsotropicFlag,
    PairedTuple,
    flag_from_tuple,
    form_from_plane,
    plane_from_form,
    transversality_margin,
    tuple_from_flags,
)
from .affine_deform import (  # noqa: F401
    Cocycle,
    FiniteDeformation,
    coboundary,
    eigenvalue_derivative,
    margulis_invariant,
)
from .spectra import (  # noqa: F401
    EntropyEstimate,
    LengthFunctional,
    LengthSpectrum,
    anosov_gap_report,
    bm_average,
    critical_exponent,
    entropy_estimate,
    length_spectrum,
    perturbed_entropy_scan,
)
