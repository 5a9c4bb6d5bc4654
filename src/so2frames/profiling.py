"""The cost ladder behind ``so2frames profile``: the model end to end on
seeded molecules of growing size, at two configs.

The molecule of n atoms is ``sample_molecule(1, n, [1, 6, 8], 1.4, 15.0)``.
The configs are its ``default_fit_config`` ("fit") and
``ModelConfig(elements=(1, 6, 8))`` ("lmax4").  Per size and config the
ladder times three calls, each ``repeats`` times after one warm-up call,
and gives their median and interquartile range in milliseconds:
``prepare_graph``; ``predict`` on the prepared graph; and a taped
``predict`` on the prepared graph with its mean-absolute loss and
``backward``.  It also records the tape nodes of that loss, the
``OpCounter`` totals of one ``predict``, and, from one more taped call
under ``tracemalloc``, the bytes the tape holds and the peak while
``backward`` runs (tape included).  A pass over the first size at both
configs runs first and is dropped, so the first row carries no process
warm-up and compares with the later ones.

Wall times vary from run to run and from machine to machine, so they are
returned here and never enter a :class:`harness.RunReport`.  The ladder
records the BLAS and OpenMP thread variables the process ran under and
sets none of them.  The package does not import this module, so
``import so2frames`` does not load ``tracemalloc``.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np

from . import autodiff as ad
from .counters import OpCounter
from .graph import sample_molecule
from .model import ModelConfig, default_fit_config, init_params, predict, prepare_graph

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _taped_loss(graph, params, config, prepared) -> ad.Var:
    leaves = {k: ad.Var(v) for k, v in params.items()}
    return ad.mean_all(ad.absolute(predict(graph, leaves, config, prepared).data))


def _tape_nodes(out: ad.Var) -> int:
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if type(node) is ad.Var and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


def _timed(fn, repeats: int) -> dict:
    fn()   # fills the lazy caches
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(np.array(times) * 1e3, [25, 50, 75])
    return {"median_ms": float(median), "iqr_ms": float(q3 - q1)}


def ladder(atoms, repeats: int) -> dict:
    """The ladder over the molecule sizes ``atoms``, one row per size and
    config.  Raises ValueError for no sizes, a size below 1 or fewer than
    one repeat."""
    if not atoms or min(atoms) < 1 or repeats < 1:
        raise ValueError(f"profile needs sizes >= 1 and repeats >= 1, got {list(atoms)} "
                         f"and {repeats}")
    rows = []
    for n in (atoms[0], *atoms):   # the rows of the warm-up pass are dropped
        graph = sample_molecule(1, n, [1, 6, 8], 1.4, 15.0)
        for name, config in (("fit", default_fit_config(graph)),
                             ("lmax4", ModelConfig(elements=(1, 6, 8)))):
            params = init_params(config)
            prepared = prepare_graph(graph, config)
            row = {"atoms": n, "edges": len(graph.edges), "config": name,
                   "prepare_graph": _timed(lambda: prepare_graph(graph, config), repeats),
                   "predict": _timed(lambda: predict(graph, params, config, prepared), repeats),
                   "taped": _timed(lambda: ad.backward(_taped_loss(graph, params, config,
                                                                   prepared)), repeats)}
            counter = OpCounter()
            predict(graph, params, config, prepared, counter)
            row["op_counts"] = dict(sorted(counter.counts.items()))
            tracemalloc.start()
            try:
                loss = _taped_loss(graph, params, config, prepared)
                row["tape_bytes"] = tracemalloc.get_traced_memory()[0]
                row["tape_nodes"] = _tape_nodes(loss)
                tracemalloc.reset_peak()
                ad.backward(loss)
                row["backward_peak_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows.append(row)
    return {"molecules": "sample_molecule(1, n, [1, 6, 8], 1.4, 15.0)",
            "configs": {"fit": "default_fit_config(molecule)",
                        "lmax4": "ModelConfig(elements=(1, 6, 8))"}, "repeats": repeats,
            "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
            "rows": rows[2:]}
