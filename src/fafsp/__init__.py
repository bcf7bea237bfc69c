"""Dynamic flexible assembly flow shop: simulator, rule language, validation
oracles, and LLM-driven dispatching-rule evolution."""

from .model import (Instance, InstanceFormatError, Job, Machine, Order, Product,
                    Stage, check_instance, load_instance, save_instance)
from .generator import ScenarioConfig, generate_instance, load_scenario
from .sim import (FeatureView, Schedule, SimState, advance_clock, apply_arc,
                  feasible_arcs, run_dispatch, total_tardiness)
from .rules import (BUILTIN_IDS, RuleInvalid, RuleSpec, builtin_source, rank_arcs,
                    validate_rule)
from .validator import Violation, brute_force_optimum, validate_schedule
from .llm import (Critique, LiveTransport, PromptBundle, RecordingTransport,
                  ReplayTransport, ScriptedTransport, extract_critique,
                  extract_individual, render_evaluator_prompt, render_generator_prompt)
from .evolve import (EvolutionConfig, EvolutionResult, RuleIndividual,
                     evaluate_fitness, run_evolution, summarize_features,
                     tournament_select)
from .bench import BenchReport, compute_ari, default_grid, export_traces, run_benchmark

__version__ = "0.1.0"
