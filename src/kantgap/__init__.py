"""kantgap: an exact laboratory for transport duality on finite spaces.

Costs take values in [0, oo], marginals are rational weight vectors, and
every value of interest (full, partial, relaxed, truncated, dual, cover,
capacity) is computed exactly together with a certificate.  See README.md
for the tour and ``demos/`` for worked narratives.

``import kantgap`` loads no submodule.  Every module, and every public name
listed in ``_LAZY`` beside its module, loads on first use: reading
``kantgap.dual_value`` or ``kantgap.dual`` imports ``kantgap.dual`` (and
what it imports), and then binds the name here.  So a command compiles only
the modules it runs (see ``kantgap.cli``), and ``from kantgap import *``
binds every name of ``__all__``, which loads every solver module.
"""

__version__ = "0.1.0"

_LAZY = {
    "core": (
        "INF", "NEG_INF", "CostMatrix", "Coupling", "DiscreteSpace", "Marginal",
        "add_couplings", "constant_matrix", "cost_of", "coupling_marginals", "dominates",
        "empty_coupling", "is_full_coupling", "is_inf", "is_neg_inf", "is_partial_coupling",
        "make_cost_matrix", "make_coupling", "make_marginal", "marginals_equal",
        "product_coupling", "truncate_at", "truncate_cost", "uniform_marginal",
    ),
    "dual": (
        "AttainmentReport", "DualPair", "DualReport", "FeasibilityCheck", "ImprovingRay",
        "RelaxedDualReport", "attainment_check", "chargeable_cells", "dual_value",
        "j_functional", "make_dual_pair", "relaxed_dual_value", "verify_feasible",
    ),
    "flow": (
        "PotentialPair", "TransportProfile", "evaluate_profile", "max_shippable_mass",
        "optimal_coupling_at", "solve_profile",
    ),
    "modes": ("arithmetic", "get_mode"),
    "primal": (
        "PrimalReport", "StudyRow", "constant_truncation_sweep", "partial_value",
        "phi_value", "primal_report", "primal_value", "refinement_study", "relaxed_value",
        "truncation_sweep",
    ),
    "scenarios": ("closed_inf_band", "example_diagonal", "random_instance"),
    "kellerer": (
        "CellSet", "CoverCertificate", "Decomposition", "capacity_value",
        "cellset_from_matrix", "cellset_from_pairs", "cover_value", "kellerer_decompose",
        "max_mass_on", "null_for_all_couplings",
    ),
    "oracle": (
        "brute_capacity", "brute_chargeable", "brute_cover", "brute_primal", "brute_profile",
    ),
    "relaxation": ("complete_partial", "shrink_to_partial"),
    "errors": (),
    "problem_io": (),
    "cli": (),
}
_LAZY_MODULE = {name: mod for mod, names in _LAZY.items() for name in (mod, *names)}
__all__ = [name for names in _LAZY.values() for name in names]


def __getattr__(name):
    """A module of ``_LAZY``, or one of its names, imported on first use
    (PEP 562) and then bound here.  Threads may race to the first read: the
    import system lets one of them run the module, the others wait for it,
    and each binds the same object."""
    mod = _LAZY_MODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{mod}")
    value = module if name == mod else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY_MODULE})
