"""Deterministic federated-learning poisoning lab.

A density-ratio defense (LoMar) against colluding poisoners, classic robust
aggregation baselines, attack generators, and a reproducible experiment
harness with a CLI.
"""

from .attacks import AttackConfig, boost_update, make_flipped_shard
from .baselines import AggregationResult, coordinate_median, fedavg, fg_krum, foolsgold, krum
from .data import DataShard, IdxFormatError, PartitionPlan, load_idx, partition, synth_gaussian
from .harness import ConfigError, ExperimentConfig, load_config, run_experiment, run_round, run_sweep
from .lomar import KdeConfig, LomarResult, false_alarm_bound, knn, log_ball_volume, lomar_run, sq_dist_matrix
from .metrics import RocPoint, RoundRecord, confusion_counts, eval_accuracy, roc_from_scores
from .models import ModelSpec, ParamLayout, ParamVector, Round, local_train, loss_and_grad, predict

__version__ = "0.1.0"
