"""SPARQL query processor: parser, algebra, optimizer, executor, engine."""

from .algebra import translate_group, translate_query
from .ast import AskQuery, SelectQuery
from .bindings import Binding, variable_name
from .cursor import AskCursor, Deadline, ResultCursor, SelectCursor
from .engine import (
    ENGINE_PRESETS,
    IN_MEMORY_BASELINE,
    IN_MEMORY_OPTIMIZED,
    NATIVE_BASELINE,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    EngineConfig,
    PreparedQuery,
    SparqlEngine,
    load_engines,
)
from .errors import (
    EvaluationError,
    ExpressionError,
    QueryTimeout,
    SparqlError,
    SparqlSyntaxError,
    error_code,
    error_payload,
)
from .serializers import CONTENT_TYPES as RESULT_CONTENT_TYPES
from .serializers import FORMATS as RESULT_FORMATS
from .idspace import IdBinding, IdSpaceEvaluation, SlotLayout
from .optimizer import push_filters
from .parser import parse_query, parse_update
from .planner import (
    PLANNER_COST,
    PLANNER_GREEDY,
    PLANNER_NONE,
    BGPPlan,
    CostModel,
    ExplainReport,
    JoinPlan,
    PlanStep,
    plan_bgp,
    plan_tree,
)
from .results import AskResult, SelectResult
from .update import UpdateResult, execute_update

__all__ = [
    "parse_query",
    "parse_update",
    "execute_update",
    "UpdateResult",
    "translate_query",
    "translate_group",
    "push_filters",
    "IdSpaceEvaluation",
    "SlotLayout",
    "IdBinding",
    "Binding",
    "variable_name",
    "SelectQuery",
    "AskQuery",
    "SelectResult",
    "AskResult",
    "SelectCursor",
    "AskCursor",
    "ResultCursor",
    "Deadline",
    "RESULT_FORMATS",
    "RESULT_CONTENT_TYPES",
    "SparqlEngine",
    "EngineConfig",
    "PreparedQuery",
    "load_engines",
    "ENGINE_PRESETS",
    "IN_MEMORY_BASELINE",
    "IN_MEMORY_OPTIMIZED",
    "NATIVE_BASELINE",
    "NATIVE_COST",
    "NATIVE_OPTIMIZED",
    "PLANNER_NONE",
    "PLANNER_GREEDY",
    "PLANNER_COST",
    "BGPPlan",
    "PlanStep",
    "JoinPlan",
    "CostModel",
    "ExplainReport",
    "plan_bgp",
    "plan_tree",
    "SparqlError",
    "SparqlSyntaxError",
    "EvaluationError",
    "ExpressionError",
    "QueryTimeout",
    "error_code",
    "error_payload",
]
