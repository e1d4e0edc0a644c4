"""Temporary exchange markets: agents swap houses and care both about the
house they receive and about who moves into their own."""

from .axioms import (
    BlockingWitness,
    core_exists,
    enumerate_core_stable,
    enumerate_ir_allocations,
    enumerate_ir_pareto_optimal,
    enumerate_pareto_optimal,
    find_blocking_coalition,
    find_top_allocation,
    is_core_stable,
    is_individually_rational,
    is_pareto_optimal,
    is_weakly_pareto_optimal,
)
from .errors import (
    BudgetExceededError,
    ParseError,
    ProofError,
    TepError,
)
from .files import (
    parse_allocation,
    parse_instance,
    parse_predominant_profile,
    parse_responsive_profile,
    serialize_allocation,
    serialize_instance,
    serialize_predominant_profile,
    serialize_responsive_profile,
)
from .generators import (
    X3CInstance,
    empty_core_instance,
    make_x3c,
    random_instance,
    random_predominant_profile,
    random_responsive_profile,
    sp_instance,
    x3c_core_instance,
    x3c_top_instance,
)
from .incentives import (
    ManipulationWitness,
    ProofReport,
    component_order_reports,
    find_manipulation,
    strict_primary_reports,
    sublist_reports,
    verify_core_consistency_impossibility,
    verify_sp_impossibility_tree,
)
from .model import (
    Allocation,
    Instance,
    Market,
    Outcome,
    PreferenceOrder,
    canonicalize_endowment,
    compare,
    make_instance,
    outcome_of,
)
from .predominant import (
    HOUSE,
    TENANT,
    PredominantProfile,
    lex_compare,
    ttc,
    tttc,
)
from .programs import (
    BORDA,
    EXPONENTIAL,
    MathProgram,
    export_ilp,
    export_qp,
    solve_exact_max_weight,
    weights_from_ranks,
)
from .responsive import (
    PraResult,
    ResponsiveProfile,
    RsOrdering,
    acceptable_component_classes,
    is_rs_core_stable,
    is_rs_ir,
    is_rs_pareto_optimal,
    pra_rs,
    rs_aa,
    rs_compare,
)

__version__ = "0.1.0"
