"""Bayesian refinement of paired KG/BG embedding tables."""

__version__ = "0.2.2"

from .dataio import (AlignResult, EmbeddingTable, LabelTable, align,
                     load_labels, load_model, load_table, normalize_rows,
                     save_model, write_labels, write_table)
from .elbo import (BatchPrior, Edge, ElboParts, LatentSample, PosteriorStats,
                   edge_apply, edge_output_dim, elbo_pair_accumulate_grads,
                   estimate_prior, kl_penalty, reparametrize)
from .errors import (AlignmentError, BemError, ConfigError, DataError,
                     EvalError, ModelFormatError, NumericalError, ShapeError,
                     TrainingError)
from .evalkit import (ClassifierModel, EvalSplit, Histogram, RecallResult,
                      classify_accuracy, cluster_ratio_detail,
                      concat_tables, hit_recall, make_split, random_project,
                      similarity_histogram, train_classifier)
from .nets import AdamState, DiffNet, NetGrads, adam_step, net_forward_rows
from .rng import named_rng
from .synthgen import (SynthSpec, SynthTruth, generate, load_truth,
                       oracle_error, write_truth)
from .trainer import (StepRecord, TrainConfig, TrainReport, refine,
                      sample_paired_batches, train)
