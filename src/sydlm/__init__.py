"""Syntactic-distance language modeling toolkit."""

__version__ = "0.1.0"

from .config import ModelConfig, TrainConfig
from .corpus import Corpus, PreprocessRules, Vocab, preprocess_corpus
from .distance import (
    distances_to_tree_biased,
    distances_to_tree_unbiased,
    tree_to_distances,
)
from .models import build_model
from .trees import Tree, binarize_right, parse_bracketed, random_binary_tree, render_bracketed

__all__ = [
    "ModelConfig",
    "TrainConfig",
    "Corpus",
    "PreprocessRules",
    "Vocab",
    "preprocess_corpus",
    "tree_to_distances",
    "distances_to_tree_unbiased",
    "distances_to_tree_biased",
    "build_model",
    "Tree",
    "parse_bracketed",
    "render_bracketed",
    "binarize_right",
    "random_binary_tree",
    "__version__",
]
