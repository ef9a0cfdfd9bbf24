"""Timing side-channel leakage measurement and mitigation synthesis.

The library turns secret-dependent timing measurements into observation
classes, scores the remaining uncertainty of an attacker with three entropy
measures, and searches for padding policies that trade execution overhead
for leakage reduction.  Two reference mitigations and a decision-tree
enforcement stage round out a full pipeline, also reachable through the
``leakmit`` command line tool.
"""

from .baselines import (
    BucketSet,
    apply_buckets,
    double_scheme,
    fit_buckets,
)
from .clustering import (
    ObservationClass,
    ObservationClassSet,
    classset_to_json,
    cluster_functions,
    penalty_matrix,
)
from .deterministic import synthesize_det
from .enforcement import (
    DecisionTree,
    EnforcementReport,
    branch_loop_counts,
    counter_features,
    enforce,
    learn_tree,
    mod_exp_counts,
    timing_features,
    training_samples,
    tree_to_json,
)
from .entropy import EntropyMeasure, entropy, post_policy_entropy
from .errors import InfeasiblePolicyError, SolverError
from .policy import (
    EntropyReport,
    MitigationPolicy,
    blocks_policy,
    build_report,
    expected_overhead,
    expected_sizes,
    full_merge_policy,
    identity_policy,
    policy_to_json,
    sanitize_matrix,
)
from .simplex import LpResult, solve_lp
from .stochastic import SolveDiagnostics, synthesize_local, synthesize_minguess
from .timing import (
    PublicGrid,
    TimingDataset,
    gen_branch_loop,
    gen_mod_exp,
    read_csv,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BucketSet",
    "DecisionTree",
    "EnforcementReport",
    "EntropyMeasure",
    "EntropyReport",
    "InfeasiblePolicyError",
    "LpResult",
    "MitigationPolicy",
    "ObservationClass",
    "ObservationClassSet",
    "PublicGrid",
    "SolveDiagnostics",
    "SolverError",
    "TimingDataset",
    "apply_buckets",
    "blocks_policy",
    "branch_loop_counts",
    "build_report",
    "classset_to_json",
    "cluster_functions",
    "counter_features",
    "double_scheme",
    "enforce",
    "entropy",
    "expected_overhead",
    "expected_sizes",
    "fit_buckets",
    "full_merge_policy",
    "gen_branch_loop",
    "gen_mod_exp",
    "identity_policy",
    "learn_tree",
    "mod_exp_counts",
    "penalty_matrix",
    "policy_to_json",
    "post_policy_entropy",
    "read_csv",
    "sanitize_matrix",
    "solve_lp",
    "synthesize_det",
    "synthesize_local",
    "synthesize_minguess",
    "timing_features",
    "training_samples",
    "tree_to_json",
    "write_csv",
    "__version__",
]
