"""Self-training semantic transfer toolkit.

Backbone-independent numerical machinery for weakly-supervised
segmentation transfer: class-balanced pseudo pixel labels with a growing
curriculum, SLIC superpixel refinement, exponentially-weighted centroid
alignment, output-space adversarial losses, IoU evaluation, and a
desk-scale toy training pipeline that exercises everything end to end.
"""

from .core import IGNORE, argmax_map, max_map, validate_prob_map
from .thresholds import (
    ClassThresholds,
    CurriculumSchedule,
    determine_lambdas,
    portion_at,
)
from .pseudo_label import assign_initial, generate, refine_with_superpixels
from .superpixel import SlicParams, enforce_connectivity, rgb_to_lab, slic
from .transfer import (
    BatchCentroids,
    CentroidBank,
    srt_loss,
    update_bank,
)
from .losses import (
    LossWeights,
    adversarial_loss_for_segmenter,
    classification_loss,
    discriminator_loss,
    segmentation_loss,
    total_loss,
)
from .metrics import ConfusionMatrix, accumulate, iou_per_class, summary
from .toy_pipeline import (
    SynthConfig,
    TrainConfig,
    gen_synthetic,
    gradcheck,
    segmenter_forward,
    train,
)

__version__ = "0.1.0"
