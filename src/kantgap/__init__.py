"""kantgap: an exact laboratory for transport duality on finite spaces.

Costs take values in [0, oo], marginals are rational weight vectors, and
every value of interest (full, partial, relaxed, truncated, dual, cover,
capacity) is computed exactly together with a certificate.  See README.md
for the tour and ``demos/`` for worked narratives.
"""

from .core import (
    INF,
    NEG_INF,
    CostMatrix,
    Coupling,
    DiscreteSpace,
    Marginal,
    add_couplings,
    constant_matrix,
    cost_of,
    coupling_marginals,
    dominates,
    empty_coupling,
    is_full_coupling,
    is_inf,
    is_neg_inf,
    is_partial_coupling,
    make_cost_matrix,
    make_coupling,
    make_marginal,
    marginals_equal,
    product_coupling,
    truncate_at,
    truncate_cost,
    uniform_marginal,
)
from .dual import (
    AttainmentReport,
    DualPair,
    DualReport,
    FeasibilityCheck,
    ImprovingRay,
    RelaxedDualReport,
    attainment_check,
    chargeable_cells,
    dual_value,
    j_functional,
    make_dual_pair,
    relaxed_dual_value,
    verify_feasible,
)
from .flow import (
    PotentialPair,
    TransportProfile,
    evaluate_profile,
    max_shippable_mass,
    optimal_coupling_at,
    solve_profile,
)
from .kellerer import (
    CellSet,
    CoverCertificate,
    Decomposition,
    capacity_value,
    cellset_from_matrix,
    cellset_from_pairs,
    cover_value,
    kellerer_decompose,
    max_mass_on,
    null_for_all_couplings,
)
from .modes import arithmetic, get_mode
from .oracle import (
    brute_capacity,
    brute_chargeable,
    brute_cover,
    brute_primal,
    brute_profile,
)
from .primal import (
    PrimalReport,
    StudyRow,
    constant_truncation_sweep,
    partial_value,
    phi_value,
    primal_report,
    primal_value,
    refinement_study,
    relaxed_value,
    truncation_sweep,
)
from .relaxation import complete_partial, shrink_to_partial
from .scenarios import closed_inf_band, example_diagonal, random_instance

__version__ = "0.1.0"
