"""DALI: a propositional Horn-clause language with events and actions.

Agents are plain Horn programs extended with external events (reactive
rules fire when the world speaks), internal events (the agent reacts to
its own conclusions), actions with optional precondition rules, and
past/present markers for reasoning about what already happened.  The
package ships the interpreter, a transformation-based snapshot
semantics, a multi-agent tick runtime and brute-force oracles for
testing.
"""

from .engine import (
    AgentState,
    ComponentOutcome,
    Engine,
    RunResult,
    StepRecord,
    Strategy,
    run_agent,
)
from .errors import (
    DaliConfigError,
    DaliError,
    DaliSyntaxError,
    DaliValidationError,
    SourceSpan,
)
from .model import (
    AgentProgram,
    Atom,
    Clause,
    ValidationIssue,
    ValidationReport,
    validate_program,
)
from .parser import (
    EventScript,
    ScriptEntry,
    load_agent_file,
    load_event_script,
    parse_agent_file,
    parse_event_script,
    pretty,
)
from .runtime import (
    ChannelMapping,
    EvolutionTrace,
    SystemConfig,
    SystemRunner,
    evolve_system,
    load_system_config,
)
from .semantics import (
    InitialSituation,
    TransformedClause,
    TransformedProgram,
    least_model,
    snapshot,
    transform_program,
)

__version__ = "0.1.0"
