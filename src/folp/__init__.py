"""Satisfiability reasoning for forest logic programs under the open
answer set semantics: a direct tableau engine, an engine matching
pre-compiled unit completion structures, and a bounded brute-force
oracle for verification."""

from .forest import (
    ClashError,
    DependencyGraph,
    ExtendedForest,
    ForestState,
    GroundAtom,
    NodeId,
    Signed,
    StructureError,
)
from .matcher import A2CompletionStructure, check_sat_a2
from .oracle import (
    OpenInterpretation,
    OracleBudgetError,
    Universe,
    answer_sets,
    bounded_sat,
    gl_reduct,
    ground,
    is_answer_set,
    least_model,
)
from .syntax import (
    FolpError,
    ParseError,
    Program,
    ProgramParseError,
    Rule,
    RuleKind,
    Violation,
    eliminate_constraints,
    format_program,
    parse_program,
    validate_folp,
)
from .tableau import (
    A1CompletionStructure,
    EngineBudgetError,
    RedundancyPolicy,
    SearchStats,
    Verdict,
    VerdictKind,
    check_sat_a1,
    redundancy_bound,
)
from .units import (
    CacheFormatError,
    CacheMismatchError,
    CompileSummary,
    UnitCache,
    UnitCompletionStructure,
    compile_units,
    enumerate_unit_completions,
    is_final,
    is_redundant_ucs,
    load_cache,
    prune_redundant,
    save_cache,
)

__version__ = "0.1.0"
