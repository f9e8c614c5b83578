"""Text-only sequential recommendation.

Items are nothing but attribute text; a windowed-attention transformer turns
item sentences and interaction histories into vectors, and recommendation is
cosine ranking between them. Training never sees an item id.
"""

from .catalog import (Catalog, InputLimits, InteractionSequence, Item,
                      ItemSentence, ModelInput, Vocabulary, build_model_input,
                      flatten_item, item_input, tokenize)
from .encoder import Encoder, EncoderConfig, params_fingerprint
from .errors import CatalogError, CheckpointError, ConfigError, DataError
from .evaluator import (ColdStartSplit, EvalCase, EvalReport, EvalSplit,
                        cold_start_split, evaluate_cases, leave_one_out,
                        ndcg_at_k, random_baseline_mrr, rank_of_target, recall_at_k,
                        zero_shot_evaluate)
from .objectives import (LossConfig, MaskingPlan, MLMHead, apply_masking_plan,
                         cosine_scores, finetune_loss, iic_inbatch_loss,
                         make_masking_plan, mlm_loss, pretrain_loss)
from .tensor import Adam, GradTape, Parameter, Tensor
from .trainer import (FinetuneResult, ItemFeatureMatrix, TrainConfig, early_stop,
                      encode_all_items, pretrain, two_stage_finetune)

__version__ = "0.1.0"

__all__ = [
    "Adam", "Catalog", "CatalogError", "CheckpointError", "ColdStartSplit",
    "ConfigError", "DataError", "Encoder", "EncoderConfig", "EvalCase",
    "EvalReport", "EvalSplit", "FinetuneResult", "GradTape", "InputLimits",
    "InteractionSequence", "Item", "ItemFeatureMatrix", "ItemSentence",
    "LossConfig", "MaskingPlan", "MLMHead", "ModelInput", "Parameter", "Tensor",
    "TrainConfig", "Vocabulary", "apply_masking_plan",
    "build_model_input", "cold_start_split", "cosine_scores",
    "early_stop", "encode_all_items", "evaluate_cases", "finetune_loss",
    "flatten_item", "iic_inbatch_loss", "item_input", "leave_one_out",
    "make_masking_plan", "mlm_loss", "ndcg_at_k", "params_fingerprint",
    "pretrain", "pretrain_loss", "random_baseline_mrr",
    "rank_of_target", "recall_at_k", "tokenize", "two_stage_finetune",
    "zero_shot_evaluate",
]
