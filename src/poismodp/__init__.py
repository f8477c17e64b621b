"""Exact Poisson brackets, centers, and log-ozone groups over F_p."""

from .catalog import (
    PotentialForm,
    catalog_form,
    modular_potential_pipeline,
    potential_catalog,
    verify_div_identity,
    verify_expected_center,
)
from .center import (
    CenterReport,
    MonoidData,
    center_generators_skew,
    center_oracle,
    classify_skew3,
    find_beta,
    gorenstein_skew,
    gorenstein_via_theorem38,
    hilbert_skew,
    is_central,
    reduce_generators,
    skew_monoid,
)
from .deriv import (
    Derivation,
    apply_derivation,
    divergence,
    euler,
    is_poisson_derivation,
    is_unimodular,
    modular_derivation,
)
from .fieldpoly import (
    MultiPoly,
    UniPoly,
    divides,
    ff_inv,
    format_poly,
    parse_poly,
    squarefree,
)
from .errors import Limits
from .loz import (
    LozGroup,
    c_loz,
    decomposable_witness,
    enumerate_normal,
    is_inferable,
    is_poisson_normal,
    is_quasi_inferable,
    log_ozone_derivation,
    log_ozone_group,
    theorem212_check,
)
from .structure import (
    PoissonStructure,
    SkewMatrix,
    explicit_structure,
    from_ore,
    from_potential,
    from_skew_matrix,
    tensor,
    trivial_structure,
    twist,
)

__version__ = "0.1.0"
