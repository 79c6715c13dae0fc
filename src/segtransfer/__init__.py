"""Self-training semantic transfer toolkit.

Backbone-independent numerical machinery for weakly-supervised
segmentation transfer: class-balanced pseudo pixel labels with a growing
curriculum, SLIC superpixel refinement, exponentially-weighted centroid
alignment, output-space adversarial losses, IoU evaluation, and a
desk-scale toy training pipeline that exercises everything end to end.
"""

__version__ = "0.1.0"
