"""Exact attribution scores for query answers over probabilistic databases.

The package covers the full pipeline: relational instances with
endogenous/exogenous tuples, explicit-world and tuple-independent
probability spaces, a monotone query language (Boolean conjunctive queries,
unions, scalar SUM/COUNT aggregates), counterfactual interventions, the
causal-effect score and its relatives (Shapley, Banzhaf, power functions),
and an axiom-checking lab.  All arithmetic is exact rational arithmetic.
"""

from .core import (
    DEFAULT_WORLD_CAP,
    ENDOGENOUS,
    EXOGENOUS,
    ExplicitWorlds,
    InputError,
    InstanceStore,
    PDBSpace,
    PdbDocument,
    Probability,
    RelationSchema,
    ResourceLimitError,
    TupleIndependent,
    TupleRecord,
    Violation,
    clear_kept,
    enumerate_worlds,
    load_pdb_file,
    make_uniform_tid,
    parse_pdb_document,
    space_to_document,
    tuple_probability,
    validate,
    world_probability,
)
from .queries import (
    Aggregate,
    Atom,
    BCQ,
    ComponentPartition,
    ConjQuery,
    DichotomyError,
    MssFamily,
    QuerySyntaxError,
    UBCQ,
    Var,
    components,
    evaluate,
    expected_value,
    hierarchy_violation,
    is_hierarchical,
    is_monotone_check,
    is_self_join_free,
    lifted_rejections,
    load_query_file,
    minimal_satisfiable_sets,
    parse_query,
    query_probability,
)
from .interventions import (
    Intervention,
    intervene,
    intervened_expectation,
    intervened_query_value,
)
from .scores import (
    OracleReport,
    ScoreEntry,
    ScoreKind,
    ScoreReport,
    banzhaf,
    causal_effect,
    ces_ui,
    delta,
    gces_oracle,
    gces_subset_form,
    power_of_set,
    power_of_tuple,
    score_all,
    shapley,
    total_power,
    weighted_power,
)
from .axioms import (
    AxiomVerdict,
    FreshExpansion,
    ProductFormulaReport,
    Witness,
    banzhaf_score,
    check_dum,
    check_eff,
    check_g_eff,
    check_g_sym,
    check_lin,
    check_sym,
    constant_score,
    fresh_expansion,
    gces_score,
    mss_decomposition_check,
    shapley_score,
    verify_product_formula,
)

__version__ = "0.1.0"
