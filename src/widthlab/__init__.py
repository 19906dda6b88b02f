"""widthlab: exact graph width parameters and closed-form auditing.

Balanced separator numbers, treewidth, pathwidth, bandwidth, and cycle
rank on desk-scale graphs, the separator-based ranking construction, and
a brute-force audit of every printed closed form the toolkit relies on.
"""

from .audit import AuditFinding, audit_claims, audit_summary, hypercube_report
from .closed_forms import (
    N_adjoint,
    R_explicit,
    R_rec,
    bound_claim63,
    bound_log_chain,
    bound_thm6,
    claim61_value,
    claim62_value,
    harper_bandwidth,
)
from .errors import (
    DomainError,
    InvalidSeparator,
    InvariantViolation,
    MalformedInput,
    NotChordal,
    SizeLimitExceeded,
    WidthlabError,
)
from .graph import (
    Graph,
    complete,
    complete_binary_tree,
    components,
    hypercube,
    induced,
    is_chordal,
    parse_edge_list,
    path,
    path_power,
    random_chordal,
    random_graph,
    random_tree,
    serialize_edge_list,
    star,
)
from .rng import SplitMix64
from .separators import (
    SeparatorCertificate,
    check_separator,
    chordal_clique_separator,
    min_balanced_separator,
    pad_separator,
    separator_number,
    separator_number_with_witness,
)
from .solvers import (
    Ranking,
    WidthReport,
    bandwidth,
    cycle_rank,
    is_valid_ranking,
    pathwidth,
    separator_ranking,
    treewidth,
    verify_chain,
)

__version__ = "0.1.0"

__all__ = [
    "AuditFinding",
    "DomainError",
    "Graph",
    "InvalidSeparator",
    "InvariantViolation",
    "MalformedInput",
    "N_adjoint",
    "NotChordal",
    "R_explicit",
    "R_rec",
    "Ranking",
    "SeparatorCertificate",
    "SizeLimitExceeded",
    "SplitMix64",
    "WidthReport",
    "WidthlabError",
    "audit_claims",
    "audit_summary",
    "bandwidth",
    "bound_claim63",
    "bound_log_chain",
    "bound_thm6",
    "check_separator",
    "chordal_clique_separator",
    "claim61_value",
    "claim62_value",
    "complete",
    "complete_binary_tree",
    "components",
    "cycle_rank",
    "harper_bandwidth",
    "hypercube",
    "hypercube_report",
    "induced",
    "is_chordal",
    "is_valid_ranking",
    "min_balanced_separator",
    "pad_separator",
    "parse_edge_list",
    "path",
    "path_power",
    "pathwidth",
    "random_chordal",
    "random_graph",
    "random_tree",
    "separator_number",
    "separator_number_with_witness",
    "separator_ranking",
    "serialize_edge_list",
    "star",
    "treewidth",
    "verify_chain",
]
