"""Cluster-discrimination representation learning at desk scale.

Pipeline pieces: embedding storage and synthesis (`data`), k-means pseudo
labeling (`clustering`), a margin softmax with random class and feature
selection (`losses`), joint encoder/prototype training with one AdamW
step (`training`), retrieval metrics on full and truncated embeddings
(`evaluation`), grid experiments (`ablation`), gradient verification
(`gradcheck`), and a CLI front door (`cli`).
"""

__version__ = "0.1.0"

from .ablation import AblationConfig, AblationRow, run_ablation
from .clustering import ClusterResult, KMeansConfig, assign, kmeans_fit, objective
from .data import (
    EmbeddingSet,
    SyntheticSpec,
    load_embeddings,
    save_embeddings,
    synth_conflict_dataset,
)
from .evaluation import (
    RetrievalReport,
    map_at_100,
    recall_at_k,
    retrieval_report,
    truncate_dims,
)
from .gradcheck import check_selection_gradients, finite_difference, max_relative_error
from .losses import (
    LossConfig,
    LossOutput,
    PrototypeMatrix,
    SelectionPlan,
    feature_dropout_mask,
    full_plan,
    make_selection_plan,
    sample_classes,
    sample_feature_mask,
    selection_backward,
)
from .training import (
    LinearEncoder,
    TrainConfig,
    Trainer,
    TrainResult,
    init_prototypes,
    prototypes_from_labels,
    train,
)
