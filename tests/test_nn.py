import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    finite_diff_grad, max_relative_grad_error, oracle_ce, oracle_softmax, weighted_ce_sum,
)

from moltr import nn
from moltr.errors import ConfigError, InputError, TrainingError


def small_config(dims=(3, 4, 1), seed=0, activation="relu"):
    return nn.MlpConfig(layer_dims=dims, activation=activation, init_scale=0.5, seed=seed)


class TestMlpConfig:
    def test_rejects_short_dims(self):
        with pytest.raises(ConfigError):
            nn.MlpConfig(layer_dims=(4,))

    def test_rejects_non_scalar_output(self):
        with pytest.raises(ConfigError):
            nn.MlpConfig(layer_dims=(4, 3))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigError):
            nn.MlpConfig(layer_dims=(4, 1), activation="sigmoid")

    def test_hash_is_stable(self):
        a = small_config()
        b = small_config()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != small_config(seed=1).config_hash()


class TestForward:
    def test_zero_network_scores_zero(self):
        params = nn.ParameterSet.from_layers(
            [np.zeros((3, 2)), np.zeros((2, 1))], [np.zeros(2), np.zeros(1)]
        )
        scores, _ = nn.mlp_forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(scores, np.zeros(5))

    def test_identity_single_layer(self):
        params = nn.ParameterSet.from_layers([np.array([[1.0]])], [np.array([0.0])])
        scores, _ = nn.mlp_forward(params, np.array([[2.0], [3.0]]))
        assert scores.tolist() == [2.0, 3.0]

    def test_matches_naive_oracle(self):
        # Independent re-computation of the forward pass, loops only.
        config = small_config(dims=(4, 5, 3, 1), seed=3)
        params = nn.init_params(config)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 4))
        scores, _ = nn.mlp_forward(params, x, config.activation)
        for i in range(6):
            h = list(x[i])
            for li in range(params.num_layers):
                w, b = params.weights[li], params.biases[li]
                out = []
                for j in range(w.shape[1]):
                    acc = b[j]
                    for k in range(w.shape[0]):
                        acc += h[k] * w[k][j]
                    if li < params.num_layers - 1:
                        acc = max(acc, 0.0)
                    out.append(acc)
                h = out
            assert abs(scores[i] - h[0]) < 1e-12

    def test_dimension_mismatch(self):
        params = nn.init_params(small_config())
        with pytest.raises(InputError):
            nn.mlp_forward(params, np.zeros((4, 7)))

    def test_rejects_a_stacked_set(self):
        one = nn.init_params(small_config(dims=(2, 3, 1)))
        stacked = nn.ParameterSet(np.stack([one.flat, one.flat]), one.shapes)
        with pytest.raises(InputError, match="one run"):  # R = 2 = input dim
            nn.mlp_forward(stacked, np.zeros((4, 2)))

    def test_non_finite_features_rejected(self):
        params = nn.init_params(small_config())
        bad = np.zeros((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(InputError):
            nn.mlp_forward(params, bad)


class TestSoftmax:
    def test_symmetric(self):
        assert nn.softmax(np.array([0.0, 0.0]), 1.0).tolist() == [0.5, 0.5]

    def test_hand_computed(self):
        out = nn.softmax(np.array([math.log(3.0), 0.0]), 1.0)
        assert out == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_high_temperature_uniform(self):
        out = nn.softmax(np.array([5.0, -3.0, 1.0]), 1e6)
        assert np.abs(out - 1.0 / 3.0).max() < 1e-5

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        st.floats(1e-3, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one_and_keeps_argmax(self, scores, temperature):
        s = np.asarray(scores)
        out = nn.softmax(s, temperature)
        assert abs(out.sum() - 1.0) < 1e-9
        assert (out >= 0).all()
        assert out[np.argmax(s)] == pytest.approx(out.max(), rel=1e-9)

    def test_matches_the_oracle_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for temperature in (1.0, 0.5, 4.0):
            scores = rng.normal(size=7) * 3.0
            want = oracle_softmax(scores, temperature)
            assert nn.softmax(scores, temperature).tobytes() == want.tobytes()


def library_ce(pred, target):
    """The library's CE of a probability vector: distill_loss at alpha 1 on
    scores whose softmax is pred."""
    return nn.distill_loss(np.log(pred), target, None, alpha=1.0)[0]


class TestCrossEntropy:
    def test_one_hot_target(self):
        ce = library_ce(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert ce == pytest.approx(0.693147, abs=1e-6)

    def test_minimal_at_match(self):
        eps = 1e-3
        p = np.array([1 - eps, eps])
        entropy = -(p * np.log(p)).sum()
        assert library_ce(p, p) == pytest.approx(entropy, abs=1e-12)
        assert library_ce(np.array([0.5, 0.5]), p) >= entropy

    def test_hand_computed(self):
        ce = library_ce(np.array([0.75, 0.25]), np.array([0.5, 0.5]))
        assert ce == pytest.approx(0.836988, abs=1e-6)

    def test_total_via_clamping(self):
        # exp(-1000) underflows to 0, which is floored before the log.
        loss, grad = nn.distill_loss(np.array([0.0, 1000.0]), np.array([1.0, 0.0]), None, 1.0)
        assert loss == pytest.approx(-math.log(nn.PROB_FLOOR), rel=1e-15)
        assert grad.tolist() == [-1.0, 1.0]

    def test_matches_the_oracle(self):
        rng = np.random.default_rng(13)
        for n in (1, 4, 9):
            pred, target = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            assert library_ce(pred, target) == pytest.approx(oracle_ce(pred, target), abs=1e-12)


class TestWeightedCeSum:
    def test_single_target(self):
        pred = np.array([0.6, 0.4])
        t = np.array([0.3, 0.7])
        assert weighted_ce_sum(pred, [t], [1.0]) == oracle_ce(pred, t)

    def test_average_identity(self):
        pred = np.array([0.6, 0.4])
        t1, t2 = np.array([1.0, 0.0]), np.array([0.2, 0.8])
        lhs = weighted_ce_sum(pred, [t1, t2], [0.5, 0.5])
        rhs = library_ce(pred, 0.5 * t1 + 0.5 * t2)
        assert abs(lhs - rhs) < 1e-9

    def test_zero_weights(self):
        pred = np.array([0.6, 0.4])
        assert weighted_ce_sum(pred, [pred, pred], [0.0, 0.0]) == 0.0

    @given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_aggregation_identity_random(self, n, k, seed):
        rng = np.random.default_rng(seed)
        pred = rng.dirichlet(np.ones(n))
        targets = [rng.dirichlet(np.ones(n)) for _ in range(k)]
        w = rng.dirichlet(np.ones(k))
        lhs = weighted_ce_sum(pred, targets, list(w))
        fused = np.sum([wi * t for wi, t in zip(w, targets)], axis=0)
        assert abs(lhs - library_ce(pred, fused)) < 1e-9


class TestDistillLoss:
    def test_alpha_one_is_hard_ce(self):
        scores = np.array([0.3, -0.2, 1.1])
        hard = np.array([0.0, 1.0, 0.0])
        soft = np.array([0.2, 0.5, 0.3])
        loss, _ = nn.distill_loss(scores, hard, soft, alpha=1.0, temperature=3.0)
        assert loss == nn.distill_loss(scores, hard, None, alpha=1.0, temperature=3.0)[0]
        assert loss == pytest.approx(oracle_ce(oracle_softmax(scores), hard), abs=1e-12)

    def test_alpha_zero_is_soft_ce(self):
        scores = np.array([0.3, -0.2, 1.1])
        hard = np.array([0.0, 1.0, 0.0])
        soft = np.array([0.2, 0.5, 0.3])
        loss, _ = nn.distill_loss(scores, hard, soft, alpha=0.0, temperature=3.0)
        assert loss == nn.distill_loss(scores, None, soft, alpha=0.0, temperature=3.0)[0]
        assert loss == pytest.approx(oracle_ce(oracle_softmax(scores, 3.0), soft), abs=1e-12)

    def test_hand_computed_blend(self):
        scores = np.array([0.0, 0.0])
        loss, grad = nn.distill_loss(
            scores, np.array([1.0, 0.0]), np.array([0.5, 0.5]), alpha=0.2
        )
        assert loss == pytest.approx(0.693147, abs=1e-6)
        assert grad[0] == pytest.approx(-0.1, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=4)
        hard = np.array([0.0, 1.0, 0.0, 0.0])
        soft = rng.dirichlet(np.ones(4))
        for alpha, temp in [(0.2, 1.0), (0.7, 2.5), (0.0, 4.0), (1.0, 1.0)]:
            _, grad = nn.distill_loss(scores, hard, soft, alpha, temp)
            eps = 1e-6
            for j in range(4):
                up, down = scores.copy(), scores.copy()
                up[j] += eps
                down[j] -= eps
                lp, _ = nn.distill_loss(up, hard, soft, alpha, temp)
                lm, _ = nn.distill_loss(down, hard, soft, alpha, temp)
                assert grad[j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("with_hard", [True, False])
    def test_grad_at_unit_temperature_equals_the_two_softmax_formula(self, alpha, with_hard):
        rng = np.random.default_rng(11)
        for n in (1, 3, 9):
            scores = rng.normal(size=n) * 3.0
            hard = np.eye(n)[rng.integers(n)] if with_hard else None
            soft = rng.dirichlet(np.ones(n))
            if alpha == 1.0:
                want = nn.softmax(scores, 1.0) - hard if with_hard else np.zeros(n)
            elif alpha == 0.0 or not with_hard:
                want = (nn.softmax(scores, 1.0) - soft) / 1.0
            else:
                want = (alpha * (nn.softmax(scores, 1.0) - hard)
                        + (1.0 - alpha) * ((nn.softmax(scores, 1.0) - soft) / 1.0))
            got = nn.distill_loss(scores, hard, soft, alpha, 1.0)[1]
            assert got.tobytes() == want.tobytes()

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            nn.distill_loss(np.zeros(2), np.array([1.0, 0.0]), None, alpha=1.5)

    def test_rejects_a_nonpositive_temperature_on_a_live_soft_term(self):
        soft = np.array([0.5, 0.5])
        for temperature in (0.0, -1.0, math.nan):
            with pytest.raises(InputError, match="temperature must be positive"):
                nn.distill_loss(np.array([1.0, 2.0]), None, soft, 0.0, temperature)
        # With no soft term in the loss, the temperature is never used.
        loss, _ = nn.distill_loss(np.array([1.0, 2.0]), np.array([1.0, 0.0]), soft, 1.0, 0.0)
        assert loss == nn.distill_loss(np.array([1.0, 2.0]), np.array([1.0, 0.0]), None, 1.0)[0]

    @pytest.mark.parametrize("scores,match", [
        (np.array([1.0, np.inf]), "non-finite"),
        (np.zeros(0), "nonempty 1-d"),
        (np.zeros((1, 2)), "nonempty 1-d"),
    ])
    def test_rejects_bad_scores(self, scores, match):
        with pytest.raises(InputError, match=match):
            nn.distill_loss(scores, None, np.full(scores.shape, 0.5), 0.5)

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="length mismatch"):
            nn.distill_loss(np.zeros(1), np.array([0.5, 0.5]), None, 1.0)


def oracle_grad(scores, terms):
    """sum_k w_k * (softmax(scores / T_k) - target_k) / T_k, in numpy alone."""
    total = np.zeros_like(scores)
    for w, t, target in terms:
        e = np.exp(scores / t - (scores / t).max())
        total += w * (e / e.sum() - target) / t
    return total


def zero_pad_grad(scores, terms):
    """terms_grad with nothing padded."""
    return nn.terms_grad(scores, np.zeros_like(scores), *terms)


class TestTermsGrad:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_matches_the_written_out_formula(self, count):
        rng = np.random.default_rng(17 + count)
        for n in (1, 4, 9):
            for _ in range(20):
                scores = rng.normal(size=n) * 3.0
                terms = [(rng.uniform(0.0, 2.0), rng.choice([1.0, 0.5, 2.5, 4.0]),
                          rng.dirichlet(np.ones(n))) for _ in range(count)]
                got = zero_pad_grad(scores, nn.stack_terms(terms, scores.shape))
                assert np.allclose(got, oracle_grad(scores, terms), rtol=0.0, atol=1e-12)

    def test_mixed_temperatures_match_the_formula(self):
        rng = np.random.default_rng(23)
        scores = rng.normal(size=6)
        targets = [rng.dirichlet(np.ones(6)) for _ in range(3)]
        terms = list(zip([0.3, 1.0, 0.6], [1.0, 2.0, 1.0], targets))
        got = zero_pad_grad(scores, nn.stack_terms(terms, scores.shape))
        assert np.allclose(got, oracle_grad(scores, terms), rtol=0.0, atol=1e-12)

    def test_no_terms_give_zeros(self):
        got = zero_pad_grad(np.array([0.5, -1.0]), nn.stack_terms([], (2,)))
        assert got.tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("weights", [[1 / 3] * 3, [1.0, 0.0, 0.5], [0.2, 0.3, 0.5], [0.7]])
    def test_equals_the_scalarized_sum_bit_for_bit(self, weights):
        rng = np.random.default_rng(29)
        for n in (1, 3, 8):
            scores = rng.normal(size=n) * 3.0
            targets = [rng.dirichlet(np.ones(n)) for _ in weights]
            p = nn.softmax(scores, 1.0)
            want = None
            for w, target in zip(weights, targets):  # summed in k order
                g = w * (p - target)
                want = g if want is None else want + g
            terms = nn.stack_terms([(w, 1.0, t) for w, t in zip(weights, targets)], scores.shape)
            got = zero_pad_grad(scores, terms)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("temperature", [1.0, 2.5, 0.5])
    @pytest.mark.parametrize("alpha", [0.2, 0.7])
    def test_equals_the_blended_gradient_bit_for_bit(self, alpha, temperature):
        rng = np.random.default_rng(31)
        for n in (1, 3, 8):
            scores = rng.normal(size=n) * 3.0
            hard = np.eye(n)[rng.integers(n)]
            soft = rng.dirichlet(np.ones(n))
            p1 = nn.softmax(scores, 1.0)
            sg = nn.softmax(scores, temperature) - soft
            if temperature != 1.0:
                sg /= temperature
            want = alpha * (p1 - hard) + (1.0 - alpha) * sg
            got = zero_pad_grad(scores, nn.blend_terms(hard, soft, alpha, temperature))
            assert got.tobytes() == want.tobytes()


class TestBlendTerms:
    hard, soft, none = np.array([1.0, 0.0]), np.array([0.4, 0.6]), np.zeros(2)

    def slots(self, terms):
        """(weight, temperature, target name) per slot."""
        names = {(1.0, 0.0): "hard", (0.4, 0.6): "soft", (0.0, 0.0): "none"}
        return [(w, t, names[tuple(target)]) for w, t, target in zip(*(a.tolist() for a in terms))]

    def test_both_terms_hard_first(self):
        assert self.slots(nn.blend_terms(self.hard, self.soft, 0.2, 3.0)) == [
            (0.2, 1.0, "hard"), (0.8, 3.0, "soft")
        ]

    # A term of weight 0, or with no soft target, gets no slot; a row of
    # zeros, no hard target, keeps its slot at weight 0, and a weight of
    # 0 everywhere skips the list.
    @pytest.mark.parametrize("alpha,hard,soft,want", [
        (1.0, "hard", "soft", [(1.0, 1.0, "hard")]),
        (0.0, "hard", "soft", [(1.0, 3.0, "soft")]),
        (0.2, "none", "soft", [(0.0, 1.0, "none"), (1.0, 3.0, "soft")]),
        (0.2, "hard", None, [(1.0, 1.0, "hard")]),
        (1.0, "none", "soft", [(0.0, 1.0, "none")]),
        (0.0, "hard", None, []),
        (0.5, "none", None, [(0.0, 1.0, "none")]),
    ])
    def test_a_dead_term_is_dropped_and_a_lone_term_weighs_one(self, alpha, hard, soft, want):
        soft = None if soft is None else getattr(self, soft)
        assert self.slots(nn.blend_terms(getattr(self, hard), soft, alpha, 3.0)) == want

    def test_the_lone_term_rule_holds_row_by_row(self):
        hard = np.stack([self.hard, self.none, self.hard])
        weights, temperatures, targets = nn.blend_terms(hard, np.stack([self.soft] * 3), 0.2, 3.0)
        assert weights.tolist() == [[0.2, 0.8], [0.0, 1.0], [0.2, 0.8]]
        assert temperatures.tolist() == [1.0, 3.0]
        assert targets.shape == (3, 2, 2)

    def test_stack_terms_keeps_order_and_weights(self):
        a, c = np.array([1.0, 0.0]), np.array([0.5, 0.5])
        terms = [(0.5, 1.0, a), (0.0, 1.0, c), (2.0, 1.0, None), (0.25, 2.0, c),
                 (3.0, 1.0, self.none)]
        weights, temperatures, targets = nn.stack_terms(terms, (2,))
        assert weights.tolist() == [0.5, 0.25, 0.0]
        assert temperatures.tolist() == [1.0, 2.0, 1.0]
        assert targets.tolist() == [a.tolist(), c.tolist(), self.none.tolist()]


def loss_for_params(params, x, hard, soft, alpha=0.3, temp=2.0, activation="relu"):
    scores, _ = nn.mlp_forward(params, x, activation)
    loss, _ = nn.distill_loss(scores, hard, soft, alpha, temp)
    return loss


class TestBackward:
    def test_zero_score_grad_gives_zero(self):
        config = small_config()
        params = nn.init_params(config)
        scores, trace = nn.mlp_forward(params, np.random.default_rng(0).normal(size=(4, 3)))
        grads = nn.backward(trace, params, np.zeros(4))
        for g in grads.weights + grads.biases:
            assert not g.any()

    def test_single_linear_layer_closed_form(self):
        params = nn.ParameterSet.from_layers([np.array([[0.5], [-0.3]])], [np.array([0.1])])
        x = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        scores, trace = nn.mlp_forward(params, x)
        g = np.array([0.2, -0.4, 0.6])
        grads = nn.backward(trace, params, g)
        assert np.allclose(grads.weights[0], x.T @ g[:, None], atol=1e-14)
        assert grads.biases[0] == pytest.approx(g.sum())

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dims", [(3, 4, 1), (5, 8, 8, 1), (2, 1)])
    def test_matches_finite_differences(self, activation, dims):
        config = small_config(dims=dims, seed=9, activation=activation)
        params = nn.init_params(config)
        rng = np.random.default_rng(13)
        n = 5
        x = rng.normal(size=(n, dims[0]))
        hard = np.zeros(n)
        hard[1] = 1.0
        soft = rng.dirichlet(np.ones(n))
        scores, trace = nn.mlp_forward(params, x, activation)
        _, score_grad = nn.distill_loss(scores, hard, soft, 0.3, 2.0)
        analytic = nn.backward(trace, params, score_grad, activation)
        numeric = finite_diff_grad(
            params,
            lambda p: loss_for_params(p, x, hard, soft, activation=activation),
            epsilon=1e-5,
        )
        assert max_relative_grad_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_public_functions_leave_inputs_unchanged(self, activation):
        params = nn.init_params(small_config(dims=(3, 6, 4, 1), seed=4, activation=activation))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3))
        hard = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        soft = rng.dirichlet(np.ones(5))
        saved = nn.ParameterSet(params.flat.copy(), params.shapes)
        scores, trace = nn.mlp_forward(params, x, activation)
        inputs = [x, hard, soft, scores, *trace]
        before = [a.tobytes() for a in inputs]
        _, g = nn.distill_loss(scores, hard, soft, 0.3, 2.0)
        g_before = g.tobytes()
        nn.backward(trace, params, g, activation)
        assert [a.tobytes() for a in inputs] == before  # bitwise, signed zeros too
        assert g.tobytes() == g_before
        assert params == saved

    def test_backward_returns_independent_arrays(self):
        params = nn.init_params(small_config(dims=(3, 6, 4, 1), seed=4))
        scores, trace = nn.mlp_forward(params, np.random.default_rng(2).normal(size=(5, 3)))
        g = np.linspace(-1.0, 1.0, 5)
        first = nn.backward(trace, params, g)
        saved = nn.ParameterSet(first.flat.copy(), first.shapes)
        second = nn.backward(trace, params, -g)
        assert first == saved
        for a, b in zip(first.weights + first.biases, second.weights + second.biases):
            assert not np.shares_memory(a, b)
            assert np.array_equal(b, -a)
        for a in first.weights + first.biases:
            assert not any(np.shares_memory(a, p) for p in params.weights + params.biases)


class TestFiniteDiff:
    def test_quadratic(self):
        params = nn.init_params(small_config(seed=21))

        def quad(p):
            return 0.5 * sum(
                float((a * a).sum()) for a in p.weights + p.biases
            )

        grads = finite_diff_grad(params, quad, epsilon=1e-5)
        for g, p in zip(grads.weights + grads.biases, params.weights + params.biases):
            assert np.abs(g - p).max() < 1e-9

    def test_constant_function(self):
        params = nn.init_params(small_config())
        grads = finite_diff_grad(params, lambda p: 3.25, epsilon=1e-5)
        for g in grads.weights + grads.biases:
            assert not g.any()


class TestSgdStep:
    def test_zero_lr_keeps_params(self):
        params = nn.init_params(small_config())
        before = nn.ParameterSet(params.flat.copy(), params.shapes)
        grads = nn.init_params(small_config(seed=5))
        assert nn.sgd_step(params, grads, 0.0) == before

    def test_in_place_update_equals_the_per_layer_formula(self):
        params = nn.init_params(small_config(dims=(3, 5, 4, 1), seed=1))
        grads = nn.init_params(small_config(dims=(3, 5, 4, 1), seed=2))
        lr = 0.037
        want = [w - lr * g for w, g in zip(params.weights + params.biases,
                                           grads.weights + grads.biases)]
        out = nn.sgd_step(params, grads, lr)
        assert out is params
        got = params.weights + params.biases
        assert all(a.shape == b.shape and (a == b).all() for a, b in zip(got, want))

    def test_layers_are_views_of_one_copied_buffer(self):
        weights = [np.ones((2, 3)), np.full((3, 1), 2.0)]
        biases = [np.zeros(3), np.array([5.0])]
        params = nn.ParameterSet.from_layers(weights, biases)
        assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
        assert params.flat.tolist() == [1.0] * 6 + [0.0] * 3 + [2.0] * 3 + [5.0]
        assert all(np.shares_memory(a, params.flat) for a in params.weights + params.biases)
        weights[0][0, 0] = 9.0  # construction copied its input
        assert params.weights[0][0, 0] == 1.0
        params.flat[-1] = 7.0
        assert params.biases[1][0] == 7.0
        copy = nn.ParameterSet(params.flat.copy(), params.shapes)
        copy.weights[1][0, 0] = -1.0
        assert params.weights[1][0, 0] == 2.0
        assert not np.shares_memory(copy.flat, params.flat)

    def test_zero_layers_rejected(self):
        with pytest.raises(InputError, match="at least one layer"):
            nn.ParameterSet.from_layers([], [])

    def test_scalar_arithmetic(self):
        params = nn.ParameterSet.from_layers([np.array([[1.0]])], [np.array([0.0])])
        grads = nn.ParameterSet.from_layers([np.array([[0.5]])], [np.array([0.0])])
        out = nn.sgd_step(params, grads, 0.1)
        assert out.weights[0][0, 0] == pytest.approx(0.95)

    def test_monotone_on_quadratic(self):
        params = nn.init_params(small_config(seed=2))

        def quad(p):
            return 0.5 * sum(float((a * a).sum()) for a in p.weights + p.biases)

        prev = quad(params)
        for _ in range(100):
            grads = nn.ParameterSet.from_layers(
                [w.copy() for w in params.weights], [b.copy() for b in params.biases]
            )
            params = nn.sgd_step(params, grads, 0.05)
            cur = quad(params)
            assert cur <= prev
            prev = cur

    def test_non_finite_update_names_layer(self):
        params = nn.init_params(small_config())
        grads = nn.init_params(small_config())
        grads.weights[1][0, 0] = np.inf
        with pytest.raises(TrainingError, match="layer 1"):
            nn.sgd_step(params, grads, 0.1)


class TestParameterStack:
    def stack(self, dims, activation, runs=3):
        sets = [nn.init_params(small_config(dims, seed=s, activation=activation)) for s in range(runs)]
        stack = nn.ParameterSet(np.stack([p.flat for p in sets]), sets[0].shapes)
        return sets, stack

    def test_rows_are_the_stacked_sets(self):
        sets, stack = self.stack((3, 5, 4, 1), "relu")
        assert [w.shape for w in stack.weights] == [(3, 3, 5), (3, 5, 4), (3, 4, 1)]
        assert [b.shape for b in stack.biases] == [(3, 1, 5), (3, 1, 4), (3, 1, 1)]
        assert all(np.shares_memory(a, stack.flat) for a in stack.weights + stack.biases)
        assert [stack.row(r) for r in range(3)] == sets
        assert not np.shares_memory(stack.row(0).flat, stack.flat)
        stack.flat[1] = 0.0
        assert stack.weights[0][1].tolist() == [[0.0] * 5] * 3 and stack.row(0) == sets[0]

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("n", [1, 3, 9, 17])
    def test_kernels_equal_each_run_alone_bit_for_bit(self, activation, n):
        sets, stack = self.stack((3, 5, 4, 1), activation)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        per_score = rng.normal(size=(3, n))
        relu = activation == "relu"
        hs = nn.layer_outputs(stack, x, relu)
        grads = nn.ParameterSet(np.zeros_like(stack.flat), stack.shapes)
        nn.backprop_into(grads, hs, stack, per_score, relu)
        nn.sgd_step(stack, grads, 0.1)
        for r, params in enumerate(sets):
            alone = nn.layer_outputs(params, x, relu)
            assert all(np.array_equal(h[r] if h.ndim == 3 else h, a) for h, a in zip(hs, alone))
            g = nn.zeros_like_params(params)
            nn.backprop_into(g, alone, params, per_score[r], relu)
            assert grads.row(r) == g
            assert stack.row(r) == nn.sgd_step(params, g, 0.1)

    def test_non_finite_update_names_layer(self):
        _, stack = self.stack((3, 5, 4, 1), "relu")
        grads = nn.ParameterSet(np.zeros_like(stack.flat), stack.shapes)
        grads.biases[2][1, 0, 0] = np.inf
        with pytest.raises(TrainingError, match="layer 2"):
            nn.sgd_step(stack, grads, 0.1)

    def test_run_count_must_match(self):
        sets, stack = self.stack((3, 4, 1), "relu")
        with pytest.raises(InputError, match="gradient shapes"):
            nn.sgd_step(stack, nn.zeros_like_params(sets[0]), 0.1)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        config = small_config(dims=(4, 6, 1), seed=17)
        params = nn.init_params(config)
        path = tmp_path / "model.json"
        nn.save_checkpoint(config, params, path)
        loaded_config, loaded_params, doc = nn.load_checkpoint(path)
        assert loaded_config == config
        assert loaded_params == params
        assert doc["config_hash"] == config.config_hash()

    def test_refuses_a_stacked_set(self, tmp_path):
        config = small_config(dims=(4, 6, 1), seed=17)
        one = nn.init_params(config)
        stacked = nn.ParameterSet(np.stack([one.flat, one.flat]), one.shapes)
        assert stacked.layer_dims() == config.layer_dims
        with pytest.raises(InputError, match="one run"):
            nn.checkpoint_document(config, stacked)
        with pytest.raises(InputError, match="one run"):
            nn.save_checkpoint(config, stacked, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()

    def test_init_deterministic(self):
        a = nn.init_params(small_config(seed=42))
        b = nn.init_params(small_config(seed=42))
        assert a == b
        assert a != nn.init_params(small_config(seed=43))
