"""Distributed computation of tree searching parameters via hierarchical
decompositions: process number, node and edge search numbers, pathwidth."""

from .codec import (CapacityError, FramingError, KnownSize, UnknownSize,
                    decode, encode)
from .dynamic import DynamicForest, inc_build, run_script
from .forest import (ArgumentError, Forest, Graph, GraphError, ParseError,
                     StructureError, enumerate_trees, gen_tree,
                     parse_edge_list, path_tree, prufer_to_tree, random_tree,
                     serialize, spider_tree, star_tree, theorem1_tree)
from .hd import (ContractError, EvalResult, HDescriptor, NO_STABLE,
                 ParamVariant, Vect, ceil_log3, evaluate, merge,
                 merge_detailed, validate_descriptor)
from .oracle import (CapacityError as OracleCapacityError,
                     es_exact, gap_characterization_check, ns_exact,
                     pathwidth_exact, pn_exact, pn_plus_exact, stable_exact)
from .protocol import (CostCounters, RunResult, Schedule, default_scheme,
                       elect_root, run_static)
from .strategy import Action, Strategy, StrategyError, extract, validate

__version__ = "0.1.0"
