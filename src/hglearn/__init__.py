"""Transductive hypergraph learning toolkit.

Builds multimodal k-NN hypergraphs, pretrains a hypergraph network as a
masked autoencoder, and adapts it to node classification with a learnable
prompt sub-hypergraph or one of several baseline tuning strategies.

Each job has one public name in one submodule, such as
`hglearn.pipeline.run_tune` or `hglearn.metrics.evaluate_logits`.
"""

__version__ = "0.1.0"
