import numpy as np
import pytest

from depcoder.downstream import (DEFAULT_TYPE_LABELS, MetricsError, NO_ACCESS,
                                 attention_pool, cosine, cosine_rank, lrap, lrl,
                                 macro_roc_auc, mrr, multilabel_loss_grads,
                                 multilabel_probs, recall_at_k, roc_auc, triplet_loss_grads,
                                 truth_ranks, type_prf)

from oracles import brute_force_rank, naive_lrap, naive_lrl, trapezoid_auc


class TestCosineRank:
    def test_query_itself_first(self):
        q = np.array([1.0, 2.0, 3.0])
        pool = [np.array([0.0, 1.0, 0.0]), q.copy(), np.array([1.0, 0.0, 0.0])]
        assert cosine_rank(q, pool)[0] == 1

    def test_orthogonal_distractors(self):
        q = np.array([1.0, 0.0])
        pool = [np.array([0.0, 1.0]), np.array([2.0, 0.0])]
        assert cosine_rank(q, pool) == [1, 0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = rng.standard_normal(8)
            pool = [rng.standard_normal(8) for _ in range(12)]
            assert cosine_rank(q, pool) == brute_force_rank(q, pool)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal(6)
        pool = [rng.standard_normal(6) for _ in range(8)]
        scaled = [7.5 * c for c in pool]
        assert cosine_rank(q, pool) == cosine_rank(3.0 * q, scaled)

    def test_tie_break_by_pool_index(self):
        q = np.array([1.0, 0.0])
        pool = [np.array([2.0, 0.0]), np.array([1.0, 0.0]), np.array([3.0, 0.0])]
        assert cosine_rank(q, pool) == [0, 1, 2]


class TestRetrievalMetrics:
    def test_pool_of_one(self):
        q = np.array([1.0, 1.0])
        assert recall_at_k(truth_ranks([q], [[q.copy()]], [0]), 1) == 1.0

    def test_match_absent(self):
        # a truth index outside its pool is an error for recall and MRR alike
        q = np.array([1.0, 0.0])
        pool = [np.array([0.0, 1.0])]
        for t in (-1, 1):
            with pytest.raises(MetricsError):
                truth_ranks([q], [pool], [t])

    def test_no_queries(self):
        with pytest.raises(MetricsError):
            truth_ranks([], [], [])

    def test_ranks_match_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        queries = [rng.standard_normal(8) for _ in range(30)]
        pools = [[rng.standard_normal(8) for _ in range(12)] for _ in range(30)]
        truth = [int(rng.integers(12)) for _ in range(30)]
        assert truth_ranks(queries, pools, truth) == [
            brute_force_rank(q, pool).index(t) + 1 for q, pool, t in zip(queries, pools, truth)]

    def test_six_of_ten_hits(self):
        rng = np.random.default_rng(2)
        queries, pools, truth = [], [], []
        for i in range(10):
            q = rng.standard_normal(4)
            if i < 6:
                pool = [q + 1e-6 * rng.standard_normal(4), rng.standard_normal(4) * 5]
                truth.append(0)
            else:
                pool = [-q, q + rng.standard_normal(4) * 0.01]
                truth.append(0)  # the anti-aligned copy loses at rank 1
            queries.append(q)
            pools.append(pool)
        assert recall_at_k(truth_ranks(queries, pools, truth), 1) == 0.6

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(3)
        queries = [rng.standard_normal(6) for _ in range(20)]
        pools = [[rng.standard_normal(6) for _ in range(10)] for _ in range(20)]
        truth = [int(rng.integers(10)) for _ in range(20)]
        ranks = truth_ranks(queries, pools, truth)
        values = [recall_at_k(ranks, k) for k in range(1, 11)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    @pytest.mark.parametrize("k", [0, -1])
    def test_recall_rejects_a_cutoff_below_1(self, k):
        q = np.array([1.0, 0.0])
        with pytest.raises(MetricsError):
            recall_at_k(truth_ranks([q], [[q.copy()]], [0]), k)

    def test_mrr_examples(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        pool = [a.copy(), b.copy()]
        assert mrr(truth_ranks([a], [pool], [0])) == 1.0
        assert mrr(truth_ranks([a], [pool], [1])) == 0.5
        # ranks 1, 2, 4
        queries, pools, truth = [], [], []
        for rank in (1, 2, 4):
            q = np.zeros(5)
            q[0] = 1.0
            pool = []
            for i in range(4):
                v = np.zeros(5)
                if i < rank - 1:
                    v[0] = 1.0
                    v[i + 1] = 0.01 * (4 - i)
                pool.append(v)
            target = np.zeros(5)
            target[0] = 1.0
            target[4] = 0.2
            pool.insert(rank - 1, target)
            queries.append(q)
            pools.append(pool)
            truth.append(rank - 1)
        ranks = truth_ranks(queries, pools, truth)
        assert ranks == [1, 2, 4]
        got = mrr(ranks)
        assert got == pytest.approx((1 + 0.5 + 0.25) / 3)


class TestTriplet:
    def test_perfectly_separated(self):
        a = np.array([1.0, 0.0])
        assert triplet_loss_grads(a, a.copy(), -a)[0] == 0.0

    def test_equal_similarities_give_margin(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert triplet_loss_grads(a, b, b.copy(), margin=0.2)[0] == pytest.approx(0.2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        eps = 1e-6
        for _ in range(20):
            a, p, n = (rng.standard_normal(6) for _ in range(3))
            loss, da, dp, dn = triplet_loss_grads(a, p, n, margin=0.5)
            if loss == 0.0:
                continue
            for vec, grad in ((a, da), (p, dp), (n, dn)):
                for i in range(len(vec)):
                    orig = vec[i]
                    vec[i] = orig + eps
                    up = triplet_loss_grads(a, p, n, margin=0.5)[0]
                    vec[i] = orig - eps
                    down = triplet_loss_grads(a, p, n, margin=0.5)[0]
                    vec[i] = orig
                    fd = (up - down) / (2 * eps)
                    assert grad[i] == pytest.approx(fd, abs=1e-6)


class TestTypePrf:
    NO = len(DEFAULT_TYPE_LABELS)  # id of no-access

    def test_all_correct(self):
        assert type_prf([1, 2, 3], [1, 2, 3], self.NO) == (1.0, 1.0, 1.0)

    def test_everything_no_access(self):
        p, r, f1 = type_prf([self.NO] * 4, [1, 2, 3, 4], self.NO)
        assert r == 0.0 and f1 == 0.0

    def test_hand_confusion(self):
        # TP=8, FP=2, FN=2 -> P=R=F1=0.8
        preds = [1] * 8 + [2, 2] + [self.NO] * 2
        gold = [1] * 8 + [3, 3] + [4, 4]
        assert type_prf(preds, gold, self.NO) == pytest.approx((0.8, 0.8, 0.8))

    def test_gold_no_access_predicted_type_is_fp(self):
        p, r, f1 = type_prf([1, 1], [1, self.NO], self.NO)
        assert p == 0.5 and r == 1.0

    def test_bounds_and_zero_iff_no_tp(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            preds = [int(x) for x in rng.integers(0, self.NO + 1, size=n)]
            gold = [int(x) for x in rng.integers(0, self.NO + 1, size=n)]
            p, r, f1 = type_prf(preds, gold, self.NO)
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
            tp = sum(1 for a, b in zip(preds, gold)
                     if b != self.NO and a == b)
            assert (f1 == 0.0) == (tp == 0)

    def test_label_set_sizes(self):
        assert len(DEFAULT_TYPE_LABELS) == 35
        assert NO_ACCESS not in DEFAULT_TYPE_LABELS


class TestAttentionPool:
    def test_single_embedding(self):
        e = np.array([1.0, 2.0, 3.0])
        pooled, w = attention_pool([e], np.array([0.5, 0.5, 0.5]))
        assert np.allclose(pooled, e)
        assert np.allclose(w, [1.0])

    def test_identical_embeddings(self):
        e = np.array([1.0, -1.0])
        pooled, _ = attention_pool([e, e.copy(), e.copy()], np.array([3.0, 2.0]))
        assert np.allclose(pooled, e)

    def test_zero_query_uniform(self):
        embs = [np.array([2.0, 0.0]), np.array([0.0, 2.0])]
        pooled, w = attention_pool(embs, np.zeros(2))
        assert np.allclose(w, [0.5, 0.5])
        assert np.allclose(pooled, [1.0, 1.0])


class TestMultilabelHead:
    @staticmethod
    def sample(seed=6, n_labels=3):
        rng = np.random.default_rng(seed)
        embs = [rng.standard_normal(5) for _ in range(4)]
        head = {"query": rng.standard_normal(5), "w": rng.standard_normal((5, n_labels)),
                "b": rng.standard_normal(n_labels)}
        return embs, head, np.array([1.0, 0.0, 1.0])

    def test_loss_is_the_summed_binary_cross_entropy(self):
        embs, head, y = self.sample()
        scores = np.array([e @ head["query"] for e in embs])
        weights = np.exp(scores) / np.exp(scores).sum()
        logits = sum(w * e for w, e in zip(weights, embs)) @ head["w"] + head["b"]
        p = 1.0 / (1.0 + np.exp(-logits))
        assert np.allclose(multilabel_probs(embs, head), p, rtol=1e-12, atol=0)
        loss, _ = multilabel_loss_grads(embs, head, y)
        want = -float((y * np.log(p) + (1 - y) * np.log(1 - p)).sum())
        assert loss == pytest.approx(want, rel=1e-12)

    def test_grads_match_finite_differences(self):
        embs, head, y = self.sample()
        _, grads = multilabel_loss_grads(embs, head, y)
        assert {k: g.shape for k, g in grads.items()} == {k: v.shape for k, v in head.items()}
        eps = 1e-6
        for name, param in head.items():
            flat = param.reshape(-1)
            for i in range(flat.size):
                flat[i] += eps
                up, _ = multilabel_loss_grads(embs, head, y)
                flat[i] -= 2 * eps
                down, _ = multilabel_loss_grads(embs, head, y)
                flat[i] += eps
                assert grads[name].reshape(-1)[i] == pytest.approx(
                    (up - down) / (2 * eps), abs=1e-6), f"{name}[{i}]"


class TestLabelRanking:
    def test_perfect_ranking(self):
        y = np.array([[1, 0, 0, 1], [0, 1, 0, 0]])
        f = np.array([[0.9, 0.1, 0.2, 0.8], [0.1, 0.9, 0.3, 0.2]])
        assert lrap(y, f) == 1.0
        assert lrl(y, f) == 0.0

    def test_single_positive_ranked_second(self):
        y = np.array([[0, 1, 0, 0]])
        f = np.array([[0.9, 0.8, 0.1, 0.2]])
        assert lrap(y, f) == 0.5

    def test_fully_inverted(self):
        y = np.array([[1, 1, 0, 0]])
        f = np.array([[0.1, 0.2, 0.8, 0.9]])
        assert lrl(y, f) == 1.0

    def test_matches_naive_oracles(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            y = (rng.random((20, 8)) < 0.35).astype(int)
            y[y.sum(axis=1) == 0, 0] = 1
            y[y.sum(axis=1) == 8, 0] = 0
            f = rng.standard_normal((20, 8))
            assert abs(lrap(y, f) - naive_lrap(y, f)) < 1e-12, trial
            assert abs(lrl(y, f) - naive_lrl(y, f)) < 1e-12, trial

    def test_lrap_one_iff_lrl_zero_without_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            y = (rng.random((5, 6)) < 0.4).astype(int)
            y[y.sum(axis=1) == 0, 0] = 1
            y[y.sum(axis=1) == 6, 0] = 0
            f = rng.standard_normal((5, 6))  # continuous: no ties a.s.
            assert (lrap(y, f) == 1.0) == (lrl(y, f) == 0.0)

    def test_rejects_samples_without_positives(self):
        with pytest.raises(MetricsError):
            lrap(np.array([[0, 0]]), np.array([[0.1, 0.2]]))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_identical_distributions(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_trapezoid_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), 2)  # coarse grid forces ties
            assert roc_auc(scores, labels) == pytest.approx(
                trapezoid_auc(scores, labels), abs=1e-12)

    def test_macro_skips_degenerate_classes(self):
        y = np.array([[1, 1], [0, 1], [1, 1]])  # class 1 has no negatives
        f = np.array([[0.9, 0.5], [0.1, 0.5], [0.8, 0.5]])
        assert macro_roc_auc(y, f) == 1.0

    def test_requires_both_classes(self):
        with pytest.raises(MetricsError):
            roc_auc([0.1, 0.2], [1, 1])


class TestCosineEdgeCases:
    def test_zero_vector(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0
