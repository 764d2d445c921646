"""factoidlab: a simulation lab for hallucination-rate bounds.

Factoid worlds, generative-calibration metrics, the monofact
(Good-Turing) estimator, simple learning algorithms, and seeded Monte
Carlo plus exhaustive verification of every bound the analysis rests on.
"""

__version__ = "0.1.0"

from .dist import (
    BOTTOM,
    FactoidDist,
    FactoidUniverse,
    dist_from_weights,
    sample_iid,
    uniform_dist,
)
from .calibration import (
    AdaptiveBinning,
    ExactValueBinning,
    FixedWidthBinning,
    Partition,
    partition_for_spec,
)
from .estimators import (
    TrainingSample,
    good_turing_radius,
    missing_mass,
    missing_mass_lower_radius,
    monofact_estimate,
)
from .worlds import (
    ExplicitWorld,
    MultiTypeWorld,
    PermutedPowerLawWorld,
    W5World,
    WorldInstance,
    analyze_regularity,
    sample_world,
    world_sparsity,
)
from .lms import (
    Empirical,
    Laplace,
    MonofactMemorizer,
    Oracle,
    Uniform,
    YayMixture,
    train,
)
from .bounds import (
    BoundParams,
    cor1_rhs,
    cor_balfact_rhs,
    cor_fixed_mis_rhs,
    cor_general_rhs,
    verify_lemma_meat_exhaustive,
    verify_markov_step,
    verify_theorem_main_mc,
)
from .harness import (
    BoundSettings,
    ExperimentConfig,
    run_experiment,
    run_gt_concentration,
    run_multi_type_experiment,
    run_trial,
    run_upper_bound_check,
)
from .rng import SeededRng
