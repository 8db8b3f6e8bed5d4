"""The benchmark's workloads: fixed lists of nlslab CLI experiment jobs.

A job is ``(experiment, config)`` with ``config`` a flat CLI JSON object, so
``nlslab <experiment> --config <file>`` reproduces it.  The benchmark seed
enters only as the config's ``"seed"``: it changes the sampled data, never
the input sizes, so the work per pass stays the same from seed to seed.
Why each workload was chosen is recorded beside it in ``BENCHMARK.json``.
"""

from __future__ import annotations

# Pass sizes are kept to a few seconds so that one run of the benchmark
# holds several passes and its median is steady: strichartz-growth keeps
# c05's N range but two random members per N instead of c05's ensemble.
WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "strichartz-growth": [
        ("strichartz-scan", {"N_list": [16, 32, 64, 128, 256], "n_random": 2}),
    ],
    "lattice-reduction": [
        ("reduction-verify", {}),
        ("hypothesis-scan", {"N_list": [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]}),
        ("trilinear-scan", {"lam_list": [8, 16, 32, 64, 128]}),
    ],
    "energy-flux": [
        ("energy-track", {"support": [0, 4, 12, 20, 28]}),
        ("energy-track", {"T": 1.0, "dt": 0.0001, "n_samples": 11}),
    ],
    "symbol-envelope": [
        ("symbol-bound-scan", {"samples": 100000}),
    ],
}

#: Tiny configs run once, untimed, before the first pass: they load the
#: lazily imported numpy parts and fill the interpreter's caches.
WARMUP: dict[str, dict] = {
    "strichartz-scan": {"N_list": [4, 8], "n_random": 1},
    "reduction-verify": {"n_min": -3, "n_max": 3, "K_list": [1, 2], "radius_cap": 40, "spot_checks": 2},
    "hypothesis-scan": {"N_list": [4], "k_random": 1},
    "trilinear-scan": {"lam_list": [4, 8]},
    "energy-track": {"T": 0.05},
    "symbol-bound-scan": {"samples": 200, "N_list": [64], "operator_states": 1},
}

SEED_MODULUS = 2**64  # the CLI accepts unsigned 64-bit seeds


def jobs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's jobs with the benchmark seed set in every config."""
    return [(exp, dict(cfg, seed=seed % SEED_MODULUS)) for exp, cfg in WORKLOADS[workload]]


def run_job(cli, experiment: str, config: dict) -> tuple[dict, str]:
    """One job through the CLI's in-process entry points, looked up on the
    module at call time so traced wrappers apply: ``(document, csv text)``."""
    doc = cli.run_experiment(experiment, config, config["seed"], 1)
    return doc, cli.render(doc, "csv")
