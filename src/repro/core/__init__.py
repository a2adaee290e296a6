"""MAVFI core: fault models, fault injector, campaigns and QoF metrics.

This is the paper's primary contribution: an application-aware resilience
analysis framework for ROS-based autonomous systems.  The package contains

* :mod:`repro.core.fault` -- single-bit-flip fault primitives with
  sign/exponent/mantissa field targeting (Section II-B, III-B),
* :mod:`repro.core.injector` -- the MAVFI fault injector node that attaches
  to the pipeline and injects one fault per mission into a kernel or an
  inter-kernel state (Fig. 2),
* :mod:`repro.core.qof` -- the system-level quality-of-flight metrics
  (flight time, success rate, mission energy),
* :mod:`repro.core.campaign` -- campaign management: golden runs, fault
  injection runs and detection-and-recovery runs across environments,
* :mod:`repro.core.adaptive` -- the adaptive campaign driver: budgeted
  Wilson-CI-gated sampling over (setting, scenario, stage) cells,
  activation-window boundary bisection and the ``adaptive-plan-v1`` audit
  trail,
* :mod:`repro.core.executor` -- the campaign execution engine: picklable
  :class:`RunSpec` mission descriptions dispatched through serial or
  process-pool executors with streaming JSONL persistence and resume,
* :mod:`repro.core.overhead` -- detection/recovery compute-overhead
  accounting (Table II),
* :mod:`repro.core.results` -- the JSONL mission-result shards the
  execution engine streams to and every paper table is read from.
"""

from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveDriver,
    BisectionOutcome,
    CellKey,
    bisect_boundary,
    validate_plan,
    validate_plan_file,
    write_plan,
)
from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    RunSetting,
)
from repro.core.executor import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    execute_spec,
    execute_specs,
    get_executor,
)
from repro.core.fault import (
    BitField,
    Corruption,
    FaultSpec,
    corrupt_array_element,
    corrupt_message_field,
    flip_float_bit,
    flip_int_bit,
    random_bit_for_field,
)
from repro.core.injector import FaultInjectorNode, FaultPlan
from repro.core.overhead import OverheadReport
from repro.core.qof import (
    ConfidenceInterval,
    QofSummary,
    bootstrap_ci,
    derive_seed,
    qof_pool_confidence_intervals,
    summarize_runs,
    wilson_interval,
)
from repro.core.results import (
    JsonlResultStore,
    mission_result_from_dict,
    mission_result_to_dict,
    mission_results_equal,
)

__all__ = [
    "RunSpec",
    "SerialExecutor",
    "ParallelExecutor",
    "execute_spec",
    "execute_specs",
    "get_executor",
    "JsonlResultStore",
    "mission_result_to_dict",
    "mission_result_from_dict",
    "mission_results_equal",
    "BitField",
    "Corruption",
    "FaultSpec",
    "flip_float_bit",
    "flip_int_bit",
    "random_bit_for_field",
    "corrupt_array_element",
    "corrupt_message_field",
    "FaultInjectorNode",
    "FaultPlan",
    "QofSummary",
    "ConfidenceInterval",
    "bootstrap_ci",
    "derive_seed",
    "wilson_interval",
    "AdaptiveConfig",
    "AdaptiveDriver",
    "BisectionOutcome",
    "CellKey",
    "bisect_boundary",
    "validate_plan",
    "validate_plan_file",
    "write_plan",
    "qof_pool_confidence_intervals",
    "summarize_runs",
    "Campaign",
    "CampaignConfig",
    "RunSetting",
    "OverheadReport",
]
