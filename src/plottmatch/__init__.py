"""Two-sided matching with contracts under path-independent choice functions."""

from .choice import (
    Aggregate,
    ChoiceFunction,
    ContractSet,
    ExplicitTable,
    OrderChoice,
    PlottReport,
    UnionChoice,
    choice_table,
    closure_star,
    decompose_into_orders,
    format_set,
    is_plott,
    nil_set,
    parse_set,
    union,
)
from .errors import (
    AxiomsFail,
    CapExceeded,
    EmptyList,
    InternalError,
    NotCertified,
    NotDominated,
    NotSemiStable,
    NotStable,
    ParseError,
    PlottmatchError,
    UniverseMismatch,
    UnknownAgent,
)
from .hyperorders import (
    AxiomCheck,
    AxiomReport,
    DerivedLehmann,
    ExtensionalLehmann,
    audit_lehmann_axioms,
    blair_leq,
    reconstruct_choice,
)
from .market import (
    ChoiceSpec,
    Contract,
    MarketInstance,
    aggregate_sides,
    parse_instance,
)
from .oracle import (
    LatticeReport,
    StableSetCatalog,
    enumerate_stable_sets,
    format_catalog,
    generate_instance,
    invert_closure,
    is_stable_set_via_closure,
    l_operator,
    lehmann_prec,
    semi_stable_masks,
    verify_lattice,
)
from .stability import (
    ProcessTrace,
    SemiStablePair,
    SidePair,
    StabilityCheck,
    StablePair,
    blair_compare_stable,
    comparative_statics,
    format_trace,
    is_stable_set,
    lattice_join,
    lattice_meet,
    phi_step,
    run_to_fixpoint,
    semi_stable_pair,
    set_to_pair,
    side_optimal,
    side_pair,
)

__version__ = "0.1.0"
