import numpy as np
import pytest

from driftbench.errors import ParameterError
from driftbench.seeding import as_generator


class TestAsGenerator:
    def test_generator_passes_through(self):
        rng = np.random.default_rng(3)
        assert as_generator(rng) is rng

    def test_int_seed_matches_default_rng(self):
        assert as_generator(7).random() == np.random.default_rng(7).random()

    @pytest.mark.parametrize("seed", [-1, 1.5, "abc"])
    def test_seed_numpy_rejects_is_parameter_error(self, seed):
        with pytest.raises(ParameterError, match="bad seed"):
            as_generator(seed)
