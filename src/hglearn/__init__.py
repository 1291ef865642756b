"""Transductive hypergraph learning toolkit.

Builds multimodal k-NN hypergraphs, pretrains a hypergraph network as a
masked autoencoder, and adapts it to node classification with a learnable
prompt sub-hypergraph or one of several baseline tuning strategies.
"""

from .autodiff import (
    AdamWState,
    Parameter,
    ShapeError,
    Tensor,
    ValidationError,
    adamw_step,
    finite_difference_check,
    forward_backward,
)
from .data import (
    FoldSplit,
    MultimodalDataset,
    build_fused_hypergraph,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_folds,
)
from .hypergraph import (
    Hypergraph,
    knn_hyperedges,
    propagation_operator,
)
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    aggregate_folds,
    auc,
    confusion,
    evaluate_logits,
)
from .model import (
    HGNNLayer,
    HGNNStack,
    build_decoder,
    build_encoder,
    build_head,
    classify,
    hgnn_forward_operator,
)
from .pretrain import (
    MaskTokens,
    pretrain,
    sample_mask,
    sce_loss,
)
from .prompt import (
    STRATEGIES,
    TuneResult,
    build_prompt_structure,
    count_tunable_params,
    evaluate_snapshot,
    insert_prompt,
    tune_with_strategy,
)

__version__ = "0.1.0"
