"""Exact toolkit for the extremal chromatic-to-clique ratio f(n).

The package computes exact graph invariants (clique, independence, chromatic
numbers) on bitset graphs up to 64 vertices, determines small Ramsey numbers
by exhaustive symmetric search, maintains a bounds table closed under the
additive recurrence, reproduces the numeric rate constants bounding
f(n)/(n/(log2 n)^2), finds f(n) exactly by isomorph-free enumeration for
small n and bounds it below by certified explicit constructions beyond, and
checks finite consistency of the diagonal-dominance conjectures for Ramsey
numbers against the table.
"""

from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    from_graph6,
    mycielski,
    paley_graph,
    path_graph,
    random_graph,
    to_graph6,
)
from .invariants import (
    BudgetExceeded,
    ColoringCertificate,
    ExactInvariantResult,
    GreedyColoringStats,
    chromatic_number,
    clique_number,
    greedy_erdos_coloring,
    independence_number,
    is_proper_coloring,
)
from .rates import (
    ConstantsReport,
    DiagonalBracket,
    RateParams,
    diagonal_constant,
    diagonal_ramsey_index,
    entropy,
    entropy_binomial_check,
    maximize_rate,
    min_product_binomial,
    rate_function,
    ratio_envelope,
    stationarity_residual,
)
from .ramsey import (
    BoundsTable,
    RamseyBoundRecord,
    RamseyResult,
    erdos_szekeres_bound,
    load_bounds_table,
    lower_bound_from_graph,
    packaged_bounds_table,
    query_bound,
    ramsey_exact_small,
    recurrence_closure,
    save_bounds_table,
    trivial_lower_bound,
)
from .extremal import (
    Ratio,
    RatioRecord,
    RatioWitnessReport,
    SearchMeta,
    TableVerdict,
    canonical_graphs,
    load_ratio_table,
    max_ratio_exact,
    max_ratio_search,
    normalized_ratio_lower,
    packaged_ratio_table,
    save_ratio_table,
    verify_ratio_table,
)
from .conjectures import (
    ConjectureVerdict,
    EmpiricalRates,
    Fact23Entry,
    RateEntry,
    check_mult_rdc,
    check_rdc,
    check_weak_mult_rdc,
    empirical_rates,
    fact23_report,
    implication_quadruples,
)

__version__ = "0.1.0"
