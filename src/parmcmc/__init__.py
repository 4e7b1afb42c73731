"""Performance-engineered parallel MCMC kernels.

Subpackages by capability:

* `glm`      logistic-regression likelihood/gradient kernels under
             interchangeable execution strategies, plus the
             differential-update fast path
* `sampler`  slice-within-Gibbs chains for Bayesian logistic regression
* `hb`       hierarchical (multi-group) regression with coarse vs fine
             worker mappings
* `ising`    checkerboard lattice Gibbs sampling and image denoising
* `rng`      buffered batch random-number generation (uniform, normal,
             Gamma, Dirichlet)
* `perf`     roofline bounds, CPR records, benchmark grid runner
* `cli`      the `parmcmc` command-line front end
"""

from .glm import (DesignMatrix, ExecPlan, GlmWorkspace, GradResult, Strategy,
                  commit_update, diff_loglike, load_design_csv, loglike, loglike_grad,
                  synthetic_logistic)
from .hb import (HbDataset, HbState, MappingMode, MappingPolicy, hb_benchmark,
                 hb_sweep, synthetic_hb_dataset)
from .ising import (ColorPartition, IsingLattice, color_lattice, conditional_prob,
                    denoise, flip_noise, gibbs_sweep, read_pbm,
                    synthetic_binary_image, write_pbm)
from .perf import BenchRecord, GridConfig, compute_min_cpr, memory_min_cpr, run_grid
from .rng import (BufferKind, DeviateBuffer, GammaParams, OneAtATimeNormal,
                  OneAtATimeUniform, dirichlet_sample, gamma_sample, rng_bench)
from .sampler import (ChainConfig, ChainOutput, GaussianPrior, SliceShrinkError,
                      SliceWidenError, log_posterior_coord, run_chain,
                      slice_sample_coord, write_draws_csv)

__version__ = "0.1.0"
