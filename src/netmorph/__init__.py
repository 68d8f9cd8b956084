"""netmorph: function-preserving morphing of trained feed-forward
convolutional and classic neural networks (depth, width, kernel size,
and subnet changes), with a verification harness and a desk-scale
trainer."""

from .archparse import ConvSpec, build_network, parse_arch, print_arch
from .errors import (
    ArchParseError,
    FormatError,
    InfeasibleMorphError,
    NetMorphError,
    ShapeError,
)
from .morph_depth import (
    DepthMorphRequest,
    MorphOutcome,
    converge_condition,
    insert_depth,
    morph_general,
    morph_practical,
    rebalance,
)
from .morph_variants import (
    SubnetMorphRequest,
    WidthMorphRequest,
    expand_kernel,
    morph_sequential,
    morph_stacked,
    widen,
)
from .netdef import (
    ConvLayer,
    NetworkDef,
    PActLayer,
    ParallelLayer,
    forward,
    pact_eval,
    pact_grad,
    same_pad_conv,
)
from .rng import make_rng
from .serialize import deserialize, load, save, serialize
from .tensor_ops import (
    compose_filters,
    conv_mc,
    identity_filter,
    lstsq_factor_step,
    pad_filter,
)
from .train import Dataset, TrainConfig, evaluate, load_mnist_idx, predictions, train_sgd
from .verify import PreservationReport, check_preservation, occupancy

__version__ = "0.1.0"
