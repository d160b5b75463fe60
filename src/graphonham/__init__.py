"""Hamiltonicity of graphon-sampled random graphs: structural analyzers,
half-integral matching/cover certificates, and a seeded Monte Carlo harness.
"""

from .cutnorm import (
    CutNormResult,
    DistanceEstimate,
    StepFunction,
    cut_norm_exact,
    cut_norm_heuristic,
    sample_distance,
    step_difference,
)
from .errors import (
    BipartiteOrDisconnected,
    EnumerationCapExceeded,
    FormatError,
    GraphonHamError,
    GreedyStuck,
    InvariantViolation,
    NotBinaryTree,
    TypesMissing,
)
from .fracmatch import (
    FiniteGraph,
    GraphPeninsula,
    HalfCover,
    HalfMatching,
    fmn_half,
    fvcn_half,
    fvcn_value,
    graph_peninsula,
    is_connected,
    uniquely_half_covered,
)
from .graphon import (
    ConditionReport,
    ConnectivityVerdict,
    PeninsulaCertificate,
    PowerFamilyGraphon,
    StepGraphon,
    analyze,
    build_certificate,
    check_connected,
    check_degree_tail,
    check_exact_bipartite_split,
    degree_tail_ratio,
    find_peninsula,
    load_graphon,
    load_graphon_file,
)
from .hamilton import (
    HamiltonVerdict,
    cheap_obstructions,
    classify,
    exact_hamilton,
    posa_heuristic,
    validate_cycle,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    aggregate,
    records_from_csv,
    records_to_csv,
    run_experiment,
    run_trial,
    wilson_interval,
)
from .pathsys import (
    PathSystem,
    PathSystemCheck,
    check_path_system,
    decompose_binary_tree,
    low_degree_path_system,
    odd_walk,
)
from .presets import PRESET_NAMES, get_preset, preset_payload
from .sampler import (
    SampledGraph,
    degree_concentration_report,
    edge_coin,
    edge_stream_offset,
    sample_graph,
    sample_types,
)

__version__ = "0.1.0"
