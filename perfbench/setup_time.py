"""Print the seconds this fresh process spends setting up a radks run.

    python3 perfbench/setup_time.py [CONFIG]

Times `import radks.cli`, then, when a config is given, the set-up path
of `simulate`: load the config, make the grid, factor the solver and
build the base data.  Without a config only the import is timed.
"""

import sys
import time


def setup_seconds(config=None) -> float:
    t0 = time.perf_counter()
    import radks.cli  # noqa: F401
    from radks.config import load_config
    from radks.grid import make_grid
    from radks.helmholtz import build_solver
    from radks.initial_data import base_data

    if config is not None:
        cfg = load_config(config)
        grid = make_grid(cfg.n, cfg.R, cfg.N)
        build_solver(grid)
        params = {k: v for k, v in cfg.base_params.items() if v not in (None, "")}
        base_data(cfg.base_kind, grid, **params)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(setup_seconds(*sys.argv[1:2])))
