"""Construct and analyze points of extreme overfitting in small neural nets."""

import os

# One BLAS thread, set before any submodule imports numpy: sadnet's own shares
# (tensor.map_shares) are its one source of threads, and a product's bits depend
# on the BLAS thread count. It has no effect when numpy was imported first.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .data import (LabeledDataset, batches, build_corrupted_train, corrupt_labels,  # noqa: E402
                   load_cifar10, load_idx, load_mnist, subset)
from .experiment import (Checkpoint, RunRecord, TrainConfig, clean_gradient_norm,  # noqa: E402
                         construct_sad_point, distance_report, escape_run, evaluate,
                         load_checkpoint, load_datasets, new_model, run_pairs, save_checkpoint, train)
from .nn import Model, build_cnn, build_mlp, cross_entropy, full_pass, init_xavier_uniform  # noqa: E402
from .optim import OptimizerState, adam_step, sgd_step  # noqa: E402

__version__ = "0.1.0"
