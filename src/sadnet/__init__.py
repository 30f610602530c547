"""Construct and analyze points of extreme overfitting in small neural nets."""

from .data import (LabeledDataset, batches, build_corrupted_train, corrupt_labels, load_cifar10,
                   load_idx, load_mnist, subset)
from .experiment import (Checkpoint, RunRecord, TrainConfig, clean_gradient_norm,
                         construct_sad_point, distance_report, escape_run, evaluate,
                         load_checkpoint, load_datasets, new_model, run_pairs, save_checkpoint, train)
from .nn import Model, build_cnn, build_mlp, cross_entropy, full_pass, init_xavier_uniform
from .optim import OptimizerState, adam_step, sgd_step

__version__ = "0.1.0"
