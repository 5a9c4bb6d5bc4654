import numpy as np
import pytest

from so2frames.graph import build_graph, graph_from_json


class TestBuildGraph:
    def test_empty_atom_list_rejected(self):
        # an empty molecule is rejected where it enters, not deep inside predict
        with pytest.raises(ValueError, match="empty atom list"):
            build_graph([], np.zeros((0, 3)), 15.0)
        with pytest.raises(ValueError, match="empty atom list"):
            graph_from_json('{"atoms": []}')
