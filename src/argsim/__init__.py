"""argsim: coalescent-with-recombination simulator with two independent engines.

One engine runs backward in time as a Markov jump chain on ancestral
states; the other builds the same random graph spatially, tree by tree
along the unit interval. Both are exact samplers of the same law, which
makes each one a statistical oracle for the other.
"""

__version__ = "0.1.0"

from .arg import (
    Arg,
    ArgParseError,
    LocalTree,
    SummaryStats,
    ValidationReport,
    breakpoints,
    local_tree,
    read_arg,
    read_args,
    summary,
    validate_arg,
    write_arg,
)
from .backintime import (
    EventCapExceeded,
    RateBreakdown,
    sample_event,
    sample_waiting_time,
    simulate_backintime,
    total_rate,
)
from .config import SimConfig
from .density import BetaDensity, UniformDensity, parse_density
from .rng import SimRng, child_seed, replicate_rng
from .spatial import (
    PartialGraph,
    Trace,
    accept_breakpoint,
    graph_to_arg,
    kingman_tree,
    sample_next_breakpoint,
    sample_recomb_location,
    simulate_spatial,
    trace_lineage,
)
from .state import (
    Coalesce,
    IllegalEventError,
    Lineage,
    Recombine,
    State,
    render_state,
)
from .stats import (
    TestReport,
    chi_square,
    chi_square_two_sample,
    equivalence_report,
    kingman_expectations,
    ks_one_sample,
    ks_one_sample_with_atom,
    ks_two_sample,
    mean_difference_z,
    run_replicates,
)

__all__ = [
    "Arg", "ArgParseError", "BetaDensity", "Coalesce", "EventCapExceeded",
    "IllegalEventError", "Lineage", "LocalTree", "PartialGraph",
    "RateBreakdown", "Recombine", "SimConfig", "SimRng",
    "State", "SummaryStats", "TestReport", "Trace", "UniformDensity",
    "ValidationReport", "accept_breakpoint", "breakpoints", "child_seed",
    "chi_square", "chi_square_two_sample",
    "equivalence_report", "graph_to_arg",
    "kingman_expectations", "kingman_tree", "ks_one_sample",
    "ks_one_sample_with_atom", "ks_two_sample", "local_tree", "mean_difference_z",
    "parse_density", "read_arg", "read_args",
    "render_state", "replicate_rng", "run_replicates", "sample_event",
    "sample_next_breakpoint", "sample_recomb_location",
    "sample_waiting_time", "simulate_backintime", "simulate_spatial",
    "summary", "total_rate", "trace_lineage", "validate_arg", "write_arg",
]
