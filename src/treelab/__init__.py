"""Branching numbers, random-walk regimes, network flows, and first-passage
percolation on rooted trees, with exact rate-function calculus for finitely
supported laws."""

from .errors import (ResourceCapError, TreelabError, UnsupportedCaseError,
                     ValidationError)
from .ratecalc import (Distribution, RateSummary, dual_p, exact_tail,
                       exact_tail_below, fractional_moment, gamma, m_inverse,
                       p_value, rate_m, summarize)
from .trees import (Tree, TreeSpec, build_truncation, contract_k,
                    extendable_lineage, level_sizes, load_parent_list,
                    truncate, validate_tree)
from .branching import (BranchingEstimate, branching_number, cutset_min,
                        estimate_branching, growth_rate)
from .networks import (Environment, capacity_flow, effective_conductance,
                       homogeneous_conductance, homogeneous_constant_conductance,
                       max_flow, sample_environment, weighted_cut_inf)
from .rwre import (ClassificationReport, classify, escape_probability,
                   gw_flow_iterate, simulate_walk, transition_probs)
from .fpp import (FppReport, PassageSample, ProfileStats, first_passage_min,
                  fpp_report, level_profile, sample_passage_times)
from .percolation import (PercolationSample, ProofPercolation,
                          percolate_sample, proof_percolation_fpp,
                          proof_percolation_rwre, survival_monte_carlo,
                          survival_probability)

__version__ = "0.1.0"
