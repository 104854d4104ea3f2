"""The models and sizes of the benchmark workloads, shared by every file."""

# coefficient law LogPareto(alpha, beta, x0) for A and for B
LOG_PARETO = (2.0, 3.0, 0.4)
C_B = 1.0
BURN_IN = 64
P_PLUS = 0.75

# Below engine._SMOOTH_DIRECT_LIMIT (200k samples) smoothed_tail evaluates the
# conditional tail at every sample; above it, on an 8192-node grid that it
# interpolates.  chain_signed and cli_flow sit above the cut-over and
# small_indep below it.  small_indep keeps the batch size of the CLI tests;
# it cannot go below 30k, where default_grid's 0.99 quantile would lie above
# its 300-exceedance point.
#
# `sample_in_setup`: the extra set-up processes of a run also run the cold
# sampling stage, so that sample_rate is a median over seven cold processes.
# small_indep's sampling stage takes about 0.7 s, and one cold call of it
# varies by +-15% between identical processes on a 2-vCPU VM.
WORKLOADS = {
    "chain_signed": {"n": 1 << 18, "signed": True, "p_plus": P_PLUS},
    "small_indep": {"n": 50_000, "signed": False, "sample_in_setup": True},
    "cli_flow": {"n": 1 << 18, "signed": False, "workers": 2},
}

# the README config, with the example regime's inputs mu = E[A] and
# sigma = E[A^2] of LogPareto(2, 3, 0.4)
CLI_CONFIG = """\
[model]
kind = affine
a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)
dependence = independent
c_b = 1.0

[sim]
n_samples = {n}
seed = {seed}
workers = {workers}

[analysis]
alpha = 2.0
regime = example
mu = 0.5192694724646927
sigma = 0.32

[output]
dir = {out}
"""

# second dist-check: a convolution-equivalent law on the log scale
CLI_EXP_POLY_CONFIG = """\
[model]
a = exp_poly(alpha=1.0, p=-2.0, t0=1.0)

[sim]
seed = {seed}

[analysis]
alpha = 1.0
checks = dom,convolution,smallint

[output]
dir = {out}
"""
