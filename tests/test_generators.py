import numpy as np
import pytest

from driftbench.errors import DataError, ParameterError
from driftbench.generators import (
    SEA_THRESHOLDS,
    STAGGER_RULES,
    csv_concept_pair,
    rbf_pair,
    rhp_pair,
    sea_pair,
    stagger_pair,
    with_noise,
)
from driftbench.neighbor_kernel import build_kernel_gram, mmds_from_gram
from driftbench.windows import Window


class TestSea:
    def test_class_balance_theta_nine(self):
        before, after = sea_pair(0, 1)
        rng = np.random.default_rng(0)
        draws = after.draw(100_000, rng)
        # P(f1 + f2 <= 9) = 9^2/2 / 100
        assert draws[:, 3].mean() == pytest.approx(0.405, abs=0.01)

    def test_feature_marginals_identical_across_variants(self):
        a, b = sea_pair(0, 3)
        xa = a.draw(1000, np.random.default_rng(5))
        xb = b.draw(1000, np.random.default_rng(5))
        # same rng stream: features agree exactly, only labels differ
        assert np.array_equal(xa[:, :3], xb[:, :3])
        assert not np.array_equal(xa[:, 3], xb[:, 3])

    def test_deterministic_per_seed(self):
        concept, _ = sea_pair(0, 1)
        assert np.array_equal(concept.draw(50, np.random.default_rng(3)), concept.draw(50, np.random.default_rng(3)))

    def test_identical_variants_warn(self):
        with pytest.warns(UserWarning):
            sea_pair(1, 1)

    def test_invalid_variant(self):
        with pytest.raises(ParameterError):
            sea_pair(0, 7)

    def test_all_thresholds_defined(self):
        assert len(SEA_THRESHOLDS) == 4

    def test_dimension_is_not_a_constructor_argument(self):
        # the draw fixes the dimension (three features and the label)
        before, _ = sea_pair(0, 1)
        with pytest.raises(TypeError):
            type(before)(0, dim=7)
        assert before.labeled and before.draw(5, np.random.default_rng(0)).shape == (5, 4)


class TestStagger:
    def enumerate_rate(self, concept):
        hits = 0
        for size in range(3):
            for color in range(3):
                for shape in range(3):
                    hits += bool(STAGGER_RULES[concept](np.array(size), np.array(color), np.array(shape)))
        return hits / 27

    def test_concept_one_rate_exact(self):
        assert self.enumerate_rate(1) == pytest.approx(1 / 9)
        before, _ = stagger_pair(1, 2)
        draws = before.draw(50_000, np.random.default_rng(0))
        assert draws[:, 9].mean() == pytest.approx(1 / 9, abs=0.01)

    def test_one_hot_dimension(self):
        before, _ = stagger_pair(1, 2)
        draws = before.draw(100, np.random.default_rng(1))
        assert draws.shape == (100, 10)
        assert np.array_equal(draws[:, :9].sum(axis=1), np.full(100, 3.0))

    def test_distinct_concepts_differ_on_joint_distribution(self):
        # exact enumeration over the 27 attribute cells
        for a, b in ((1, 2), (1, 3), (2, 3)):
            rates_a = self.enumerate_rate(a)
            rates_b = self.enumerate_rate(b)
            assert rates_a != rates_b

    def test_invalid_concept(self):
        with pytest.raises(ParameterError):
            stagger_pair(0, 1)

    def test_identical_concepts_warn(self):
        with pytest.warns(UserWarning):
            stagger_pair(2, 2)


class TestRbf:
    def test_same_seed_same_mixture(self):
        a1, b1 = rbf_pair(d=3, n_centroids=4, seed=9)
        a2, b2 = rbf_pair(d=3, n_centroids=4, seed=9)
        assert np.array_equal(a1.centroids, a2.centroids)
        assert np.array_equal(b1.centroids, b2.centroids)

    def test_weights_sum_to_one(self):
        before, after = rbf_pair(seed=1)
        assert before.weights.sum() == pytest.approx(1.0)
        assert np.array_equal(before.weights, after.weights)

    def test_redrawn_centroids_give_nonzero_mmd(self):
        before, after = rbf_pair(d=2, n_centroids=5, seed=2)
        assert not np.array_equal(before.centroids, after.centroids)
        rng = np.random.default_rng(0)
        n = 250
        x = np.vstack([before.draw(n, rng), after.draw(n, rng)])
        t = np.concatenate([np.linspace(0, 0.5, n), np.linspace(0.51, 1, n)])
        assert mmds_from_gram(build_kernel_gram(Window(x, t)), [n])[0] > 0.05

    def test_draw_shape(self):
        before, _ = rbf_pair(d=4, seed=0)
        assert before.draw(32, np.random.default_rng(0)).shape == (32, 4)


class TestRhp:
    def test_zero_angle_no_drift(self):
        before, after = rhp_pair(d=3, rotation_angle=0.0, seed=4)
        xa = before.draw(500, np.random.default_rng(7))
        xb = after.draw(500, np.random.default_rng(7))
        assert np.array_equal(xa, xb)

    def test_feature_marginals_identical(self):
        before, after = rhp_pair(d=2, seed=5)
        xa = before.draw(400, np.random.default_rng(8))
        xb = after.draw(400, np.random.default_rng(8))
        assert np.array_equal(xa[:, :2], xb[:, :2])

    def test_right_angle_label_agreement_near_half(self):
        before, after = rhp_pair(d=2, rotation_angle=np.pi / 2, seed=6)
        rng = np.random.default_rng(9)
        xa = before.draw(20_000, rng)
        xb = after.draw(20_000, np.random.default_rng(9))
        agreement = np.mean(xa[:, 2] == xb[:, 2])
        assert agreement == pytest.approx(0.5, abs=0.03)

    def test_labels_roughly_balanced(self):
        before, _ = rhp_pair(d=5, seed=11)
        draws = before.draw(20_000, np.random.default_rng(1))
        assert draws[:, 5].mean() == pytest.approx(0.5, abs=0.02)

    def test_needs_two_dims(self):
        with pytest.raises(ParameterError):
            rhp_pair(d=1)


class TestCsvPair:
    def write(self, tmp_path, rows):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n" + "\n".join(rows) + "\n")
        return path

    def test_bootstrap_samplers(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [f"{v:.3f},{v + 1:.3f}" for v in rng.normal(size=60)]
        path = self.write(tmp_path, rows)
        before, after = csv_concept_pair(path, 0.5)
        draws = before.draw(40, np.random.default_rng(2))
        assert draws.shape == (40, 2)

    def test_split_outside_range_errors(self, tmp_path):
        path = self.write(tmp_path, ["1,2", "3,4", "5,6"])
        with pytest.raises(DataError):
            csv_concept_pair(path, -0.1)

    def test_deterministic_draws(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [f"{v:.3f},{-v:.3f}" for v in rng.normal(size=50)]
        path = self.write(tmp_path, rows)
        before, _ = csv_concept_pair(path, 0.4)
        assert np.array_equal(before.draw(20, np.random.default_rng(4)), before.draw(20, np.random.default_rng(4)))


class TestBatchIId:
    @pytest.mark.parametrize("maker", [lambda: sea_pair(0, 3)[0], lambda: stagger_pair(1, 2)[0], lambda: rbf_pair(seed=0)[0], lambda: rhp_pair(seed=0)[0]])
    def test_halves_of_one_draw_agree(self, maker):
        # draws are i.i.d. within a call: both halves share the distribution
        concept = maker()
        draws = concept.draw(4000, np.random.default_rng(7))
        first, second = draws[:2000], draws[2000:]
        scale = draws.std(axis=0) + 1e-9
        assert np.all(np.abs(first.mean(axis=0) - second.mean(axis=0)) < 5 * scale / np.sqrt(2000))


class TestNoise:
    def test_appends_gaussian_dims_before_label(self):
        before, _ = sea_pair(0, 1)
        noisy = with_noise(before, 3)
        draws = noisy.draw(5000, np.random.default_rng(0))
        assert draws.shape == (5000, 7)
        # label stays last; noise occupies the inserted columns
        assert set(np.unique(draws[:, 6])) <= {0.0, 1.0}
        assert abs(draws[:, 3:6].mean()) < 0.05
        assert draws[:, 3:6].std() == pytest.approx(1.0, abs=0.05)

    def test_concept_columns_untouched(self):
        before, _ = sea_pair(0, 1)
        noisy = with_noise(before, 2)
        plain = before.draw(100, np.random.default_rng(5))
        augmented = noisy.draw(100, np.random.default_rng(5))
        assert np.array_equal(augmented[:, :3], plain[:, :3])

    def test_zero_dims_returns_sampler(self):
        before, _ = sea_pair(0, 1)
        assert with_noise(before, 0) is before

    def test_negative_dims_rejected(self):
        before, _ = sea_pair(0, 1)
        with pytest.raises(ParameterError):
            with_noise(before, -1)
