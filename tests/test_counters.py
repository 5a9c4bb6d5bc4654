import sys
import threading

import numpy as np
import pytest

from so2frames.counters import OpCounter, count, counting
from so2frames.frames import frame_from_direction, to_local
from so2frames.graph import sample_molecule
from so2frames.irreps import So3Features, so3_layout
from so2frames.hamiltonian import assemble
from so2frames.model import (ModelConfig, default_fit_config, forward, init_params, predict,
                             prepare_graph)

LAYOUT = so3_layout([(0, 2), (1, 2), (2, 1)])
# to_local costs l^2 per channel: 2 * 1 + 1 * 4
ROTATION_COST = 6


def rotate_once():
    x = So3Features(LAYOUT, [np.ones(LAYOUT.block_shape(l)) for l in LAYOUT.indices])
    to_local(frame_from_direction([0.3, -0.2, 0.9], 2), x)


class TestCounting:
    def test_nothing_counted_outside_a_block(self):
        c = OpCounter()
        with counting(c):
            pass
        rotate_once()
        count("so2_tp", 5)
        assert c.counts == {}

    def test_counting_none_counts_nothing(self):
        outer = OpCounter()
        with counting(outer):
            with counting(None):
                rotate_once()
        assert outer.counts == {}

    def test_nested_blocks_restore_the_outer_counter(self):
        outer, inner = OpCounter(), OpCounter()
        with counting(outer):
            rotate_once()
            with counting(inner):
                rotate_once()
                rotate_once()
            rotate_once()
        assert outer.counts == {"frame_rotation": 2 * ROTATION_COST}
        assert inner.counts == {"frame_rotation": 2 * ROTATION_COST}

    def test_restored_after_an_error(self):
        outer, inner = OpCounter(), OpCounter()
        with counting(outer):
            with pytest.raises(RuntimeError):
                with counting(inner):
                    raise RuntimeError("inside")
            rotate_once()
        assert outer.get("frame_rotation") == ROTATION_COST and inner.counts == {}

    def test_threads_count_apart(self):
        counters = [OpCounter() for _ in range(4)]

        def work(c, times):
            with counting(c):
                for _ in range(times):
                    rotate_once()

        threads = [threading.Thread(target=work, args=(c, k + 1))
                   for k, c in enumerate(counters)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads' kernels
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [c.get("frame_rotation") for c in counters] == [
            (k + 1) * ROTATION_COST for k in range(4)]

    def test_negative_increment_rejected(self):
        with counting(OpCounter()), pytest.raises(ValueError):
            count("so2_tp", -1)


@pytest.mark.parametrize("l4", [False, True], ids=["fit", "l4"])
def test_three_ways_of_counting_a_prediction_agree(l4):
    # predict's counter counts the whole call, and without one predict opens
    # no block, so an enclosing block sees every kernel of it
    graph = sample_molecule(1, 8, [1, 6, 8], 1.4, 15.0)
    config = ModelConfig(elements=(1, 6, 8)) if l4 else default_fit_config(graph)
    params = init_params(config)
    prepared = prepare_graph(graph, config)
    own, outer, parts = OpCounter(), OpCounter(), OpCounter()
    predict(graph, params, config, prepared, counter=own)
    with counting(outer):
        predict(graph, params, config, prepared)
    with counting(parts):
        assemble(*forward(graph, params, config, prepared), prepared, params)
    assert own.counts == outer.counts == parts.counts
    assert set(own.counts) == {"frame_rotation", "so2_linear", "so2_tp"}
