import functools
import hashlib

import numpy as np
import pytest

from bem import trainer
from bem.dataio import EmbeddingTable, normalize_rows
from bem.elbo import Edge, edge_output_dim, estimate_prior
from bem.errors import AlignmentError, ConfigError, ShapeError, TrainingError
from bem.nets import GRAD_ROWS, ROW_BLOCK, DiffNet
from bem.rng import named_rng
from bem.synthgen import SynthSpec, generate
from bem.trainer import TrainConfig, refine, sample_paired_batches, train
from pair_oracle import elbo_pair_accumulate_grads, node_priors, zero_grads
from test_nets import ROWS_ATOL, straight_line_forward, zero_net


def tiny_tables(seed=0, n=6, d_w=2, d_z=3):
    rng = np.random.default_rng(seed)
    ids = tuple(f"e{i}" for i in range(n))
    kg = EmbeddingTable(ids=ids, matrix=rng.normal(size=(n, d_w)))
    bg = EmbeddingTable(ids=ids, matrix=rng.normal(size=(n, d_z)))
    return kg, bg


class TestSamplePairedBatches:
    def test_full_batch_is_a_permutation(self):
        rng = np.random.default_rng(0)
        a, b = sample_paired_batches(8, 8, rng)
        assert sorted(a) == list(range(8)) and sorted(b) == list(range(8))
        assert not np.any(a == b)

    def test_deterministic_given_seed(self):
        a1, b1 = sample_paired_batches(50, 10, np.random.default_rng(42))
        a2, b2 = sample_paired_batches(50, 10, np.random.default_rng(42))
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_no_self_pairs_unless_allowed(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = sample_paired_batches(5, 5, rng)
            assert not np.any(a == b)

    def test_self_pairs_possible_when_allowed(self):
        rng = np.random.default_rng(2)
        seen_self = False
        for _ in range(100):
            a, b = sample_paired_batches(5, 5, rng, allow_self_pairs=True)
            seen_self = seen_self or bool(np.any(a == b))
        assert seen_self

    def test_inclusion_frequency_is_uniform(self):
        # Each entity lands in batch a with probability n_batch/n; over 1e4
        # draws the empirical frequency stays within 4 standard errors.
        n, n_batch, draws = 100, 10, 10_000
        rng = np.random.default_rng(7)
        counts = np.zeros(n)
        for _ in range(draws):
            a, _ = sample_paired_batches(n, n_batch, rng)
            counts[a] += 1
        p = n_batch / n
        se = np.sqrt(p * (1 - p) / draws)
        freq = counts / draws
        assert np.all(np.abs(freq - p) < 4 * se)

    def test_too_few_entities(self):
        with pytest.raises(ConfigError):
            sample_paired_batches(1, 1, np.random.default_rng(0))


class TestTrainConfig:
    def test_defaults_are_valid(self):
        TrainConfig().validate()

    def test_batch_bounds(self):
        with pytest.raises(ConfigError):
            TrainConfig(n_batch=1).validate()
        with pytest.raises(ConfigError):
            TrainConfig(n_batch=10).validate(n_entities=5)

    def test_positivity(self):
        with pytest.raises(ConfigError):
            TrainConfig(lambda1=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0.0).validate()

    @pytest.mark.parametrize("name", ["epochs", "lambda1", "lambda2", "learning_rate"])
    def test_infinity_is_rejected(self, name):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(**{name: float("inf")}).validate()

    def test_step_count_ceiling(self):
        assert TrainConfig(n_batch=2, epochs=0.01).n_steps(4) == 1
        assert TrainConfig(n_batch=2, epochs=1.0).n_steps(5) == 3

    def test_dict_round_trip(self):
        cfg = TrainConfig(edge=Edge.IDENTITY, lambda2=0.5, seed=9)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("change", [
        {"normalize_inputs": "false"}, {"normalize_inputs": 0}, {"n_batch": "x"},
        {"n_batch": True}, {"n_batch": 3.0}, {"epochs": -1}, {"epochs": False},
        {"learning_rate": "0.1"}, {"lambda1": None}, {"edge": "cosine"}, {"edge": 1},
        {"seed": [0]}, {"extra": 1}, {"epochs": float("inf")}, {"learning_rate": float("inf")}])
    def test_from_dict_checks_each_value(self, change):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({**TrainConfig().to_dict(), **change})

    def test_from_dict_needs_every_key(self):
        d = TrainConfig().to_dict()
        del d["n_iter"]
        with pytest.raises(ConfigError, match="exactly the keys"):
            TrainConfig.from_dict(d)

    def test_from_dict_ignores_the_legacy_bootstrap_count(self):
        # Model headers written before the closed-form prior hold n_bootstrap.
        legacy = {**TrainConfig().to_dict(), "n_bootstrap": 30}
        assert TrainConfig.from_dict(legacy) == TrainConfig()
        assert "n_bootstrap" in legacy  # the caller's mapping is left as it was

    @pytest.mark.parametrize("value", ["30", 30.0, True, None])
    def test_from_dict_checks_the_legacy_bootstrap_type(self, value):
        with pytest.raises(ConfigError, match="n_bootstrap must be of type int"):
            TrainConfig.from_dict({**TrainConfig().to_dict(), "n_bootstrap": value})

    def test_from_dict_still_refuses_other_extra_keys(self):
        d = {**TrainConfig().to_dict(), "n_bootstrap": 30, "extra": 1}
        with pytest.raises(ConfigError, match="exactly the keys"):
            TrainConfig.from_dict(d)

    def test_from_dict_takes_an_integer_for_a_float_field(self):
        assert TrainConfig.from_dict({**TrainConfig().to_dict(), "epochs": 2}).epochs == 2


class TestTrain:
    def test_single_step_matches_hand_trace(self):
        # Replays the documented rng stream with public ops, then applies
        # one hand-written Adam update to the hand-averaged batch gradient.
        n, d_w, d_z, n_batch = 4, 2, 3, 2
        kg, bg = tiny_tables(seed=11, n=n, d_w=d_w, d_z=d_z)
        cfg = TrainConfig(n_batch=n_batch, epochs=n_batch / n, hidden_dim=4,
                          seed=123, normalize_inputs=False, edge=Edge.TRANSLATION)
        assert cfg.n_steps(n) == 1
        proj_net, infer_net, report = train(kg, bg, cfg)

        rng = named_rng(cfg.seed, "train")
        d_g = edge_output_dim(cfg.edge, d_z)
        proj_ref = DiffNet.random(d_w, cfg.hidden_dim, d_z, rng)
        infer_ref = DiffNet.random(d_w + d_z, cfg.hidden_dim,
                                   2 * d_w + 2 * d_g, rng)
        pairs = sample_paired_batches(n, n_batch, rng)
        a, b = pairs
        prior_a, prior_b = node_priors(estimate_prior(
            kg.matrix[pairs], bg.matrix[pairs], cfg.edge, cfg.lambda1, cfg.lambda2))
        noise = rng.standard_normal((n_batch, 2 * d_w + 2 * d_g))
        sums = {}
        elbo_sum = 0.0
        for m in range(n_batch):
            gp, gi = zero_grads(proj_ref), zero_grads(infer_ref)
            parts = elbo_pair_accumulate_grads(
                proj_ref, infer_ref, cfg.edge,
                kg.matrix[a[m]], bg.matrix[a[m]],
                kg.matrix[b[m]], bg.matrix[b[m]],
                prior_a, prior_b, noise[m], gp, gi)
            elbo_sum += parts.elbo
            for prefix, g in (("proj.", gp), ("infer.", gi)):
                for name in ("W1", "b1", "W2", "b2"):
                    key = prefix + name
                    sums[key] = sums.get(key, 0.0) + getattr(g, name)
        params = {**proj_ref.param_dict("proj."), **infer_ref.param_dict("infer.")}
        lr, b1c, b2c, eps_adam = cfg.learning_rate, 0.9, 0.999, 1e-8
        for key, p in params.items():
            g = -sums[key] / n_batch  # loss gradient
            m_hat = ((1 - b1c) * g) / (1 - b1c)
            v_hat = ((1 - b2c) * g * g) / (1 - b2c)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps_adam)
        assert report.records[0].elbo == pytest.approx(elbo_sum / n_batch, rel=1e-12)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.allclose(getattr(proj_net, name), getattr(proj_ref, name),
                               rtol=0, atol=1e-13)
            assert np.allclose(getattr(infer_net, name), getattr(infer_ref, name),
                               rtol=0, atol=1e-13)

    def test_zero_learning_rate_freezes_parameters(self):
        kg, bg = tiny_tables(seed=3)
        cfg = TrainConfig(n_batch=3, epochs=2.0, hidden_dim=4, seed=1,
                          learning_rate=0.0, normalize_inputs=False)
        proj_net, infer_net, report = train(kg, bg, cfg)
        rng = named_rng(cfg.seed, "train")
        d_g = edge_output_dim(cfg.edge, bg.dim)
        proj_ref = DiffNet.random(kg.dim, cfg.hidden_dim, bg.dim, rng)
        infer_ref = DiffNet.random(kg.dim + bg.dim, cfg.hidden_dim,
                                   2 * kg.dim + 2 * d_g, rng)
        assert np.array_equal(proj_net.W1, proj_ref.W1)
        assert np.array_equal(infer_net.W2, infer_ref.W2)
        assert report.n_steps == cfg.n_steps(len(kg))

    def test_determinism_bit_identical(self):
        kg, bg = tiny_tables(seed=5, n=10)
        cfg = TrainConfig(n_batch=4, epochs=3.0, hidden_dim=6, seed=77,
                          normalize_inputs=True)
        out1 = train(kg, bg, cfg)
        out2 = train(kg, bg, cfg)
        assert out1[2].param_checksum == out2[2].param_checksum
        assert [r.elbo for r in out1[2].records] == [r.elbo for r in out2[2].records]
        r1 = refine(kg, bg, out1[0], out1[1])
        r2 = refine(kg, bg, out2[0], out2[1])
        assert np.array_equal(r1[0].matrix, r2[0].matrix)
        assert np.array_equal(r1[1].matrix, r2[1].matrix)

    def test_determinism_bit_identical_across_weight_gradient_flushes(self):
        # 2*n_batch = 80 node rows per net and step: one full GRAD_ROWS flush
        # inside the step and a partial one when the step reads the sums.
        n_batch = 40
        assert 2 * n_batch > GRAD_ROWS and (2 * n_batch) % GRAD_ROWS
        kg, bg = tiny_tables(seed=6, n=50)
        cfg = TrainConfig(n_batch=n_batch, epochs=3.0, hidden_dim=6, seed=78)
        out1, out2 = train(kg, bg, cfg), train(kg, bg, cfg)
        assert out1[2].n_steps == 4
        assert out1[2].param_checksum == out2[2].param_checksum
        assert [r.elbo for r in out1[2].records] == [r.elbo for r in out2[2].records]

    @pytest.mark.parametrize("edge, n_iter", [*((edge, 1) for edge in Edge),
                                              (Edge.TRANSLATION, 3)],
                             ids=[*map(str, Edge), "n_iter=3"])
    def test_param_checksum_is_pinned(self, edge, n_iter):
        # Any change to how a batch is laid out or summed must leave the
        # trained bits alone. Hashes taken at tool_version 0.3.3, the same
        # with one and with two BLAS threads; the n_iter=3 hash also pins
        # Adam's step count across passes.
        pinned = {
            (Edge.TRANSLATION, 1):
                "6bec0c64116999483f153a75fcc9331d8fb9472cb4add2c48d2c815e8b32baa5",
            (Edge.INNER_PRODUCT, 1):
                "d9ca51a0c168cd2595b342fffa7d632c1abb95ee366fe4432cbd56bb73ccedcd",
            (Edge.IDENTITY, 1):
                "013147a3e9b75752b767ad103d494054bc2d15afa3354f0d4ba515b23c267bf5",
            (Edge.TRANSLATION, 3):
                "8278ecf5d6370969841e28b7f4055c1637e7c4098c4ccf85cb448eea53c2f24a",
        }
        truth = generate(SynthSpec(n_entities=300, seed=7))
        cfg = TrainConfig(n_batch=50, hidden_dim=16, epochs=2.0, edge=edge, n_iter=n_iter)
        assert train(truth.kg, truth.bg, cfg)[2].param_checksum == pinned[edge, n_iter]

    @pytest.mark.parametrize("n_iter", [1, 2])
    def test_each_step_samples_through_the_module_global(self, monkeypatch, n_iter):
        # The benchmark times each step by swapping the module attribute
        # trainer.sample_paired_batches; a local binding would hide the steps.
        kg, bg = tiny_tables(seed=4, n=10)
        cfg = TrainConfig(n_batch=4, epochs=2.0, hidden_dim=5, seed=9, n_iter=n_iter)
        plain = train(kg, bg, cfg)[2]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_paired_batches(*args, **kwargs)

        monkeypatch.setattr(trainer, "sample_paired_batches", counted)
        report = train(kg, bg, cfg)[2]
        assert len(calls) == report.n_steps == cfg.n_steps(len(kg))
        assert report.param_checksum == plain.param_checksum

    def test_non_finite_gradient_names_the_tensor(self, monkeypatch):
        engine = trainer.elbo_batch_grads

        def poisoned(*args):
            values = engine(*args)
            args[-1].W2[0, 0] = np.nan  # the inference net's accumulator
            return values

        monkeypatch.setattr(trainer, "elbo_batch_grads", poisoned)
        kg, bg = tiny_tables(seed=2)
        with pytest.raises(TrainingError, match=r"step 1: non-finite gradient in infer\.W2$"):
            train(kg, bg, TrainConfig(n_batch=3, epochs=1.0, hidden_dim=4))

    def test_non_finite_parameter_names_the_tensor(self):
        # A learning rate near the float limit overflows the first update.
        kg, bg = tiny_tables(seed=2)
        cfg = TrainConfig(n_batch=3, epochs=1.0, hidden_dim=4, learning_rate=1e308,
                          normalize_inputs=False)
        with pytest.raises(TrainingError, match=r"step 1: non-finite parameter after "
                           r"update in (proj|infer)\.(W1|b1|W2|b2)$"):
            train(kg, bg, cfg)

    def test_misaligned_tables_raise_with_ids(self):
        kg, _ = tiny_tables(seed=0, n=4)
        rng = np.random.default_rng(1)
        bg = EmbeddingTable(ids=("e0", "e1", "e2", "x9"),
                            matrix=rng.normal(size=(4, 3)))
        with pytest.raises(AlignmentError, match="x9"):
            train(kg, bg, TrainConfig(n_batch=2, epochs=1.0, hidden_dim=4))

    def test_non_finite_elbo_reports_step(self):
        kg, bg = tiny_tables(seed=2)
        cfg = TrainConfig(n_batch=3, epochs=4.0, hidden_dim=4, seed=0,
                          learning_rate=1e12, normalize_inputs=False)
        with pytest.raises(TrainingError, match=r"step \d+"):
            train(kg, bg, cfg)

    def test_elbo_improves_on_synthetic_data(self):
        # Window-50 smoothed trace at the end beats the start.
        truth = generate(SynthSpec(n_entities=400, kg_dim=8, bg_dim=12,
                                   n_clusters=4, true_hidden=12, seed=3))
        cfg = TrainConfig(n_batch=50, epochs=25.0, hidden_dim=48, seed=5,
                          normalize_inputs=False)
        _, _, report = train(truth.kg, truth.bg, cfg)
        trace = report.elbo_trace()
        assert report.n_steps == 200
        assert np.mean(trace[-50:]) > np.mean(trace[:50])
        assert np.mean(trace[150:200]) > np.mean(trace[:50])

    def test_identity_edge_trains_with_finite_elbo(self):
        kg, bg = tiny_tables(seed=8, n=12)
        for edge in (Edge.IDENTITY, Edge.TRANSLATION, Edge.INNER_PRODUCT):
            cfg = TrainConfig(n_batch=5, epochs=2.0, hidden_dim=5, seed=2,
                              edge=edge, normalize_inputs=False)
            proj, _, report = train(kg, bg, cfg)
            assert np.all(np.isfinite(report.elbo_trace()))
            # b2 cancels in proj_i - proj_j: zero gradient, so it stays at 0.
            assert bool(np.any(proj.b2)) == (edge is not Edge.TRANSLATION)


def random_nets(kg, bg, edge, hidden, rng):
    """Both nets from ``DiffNet.random``, then, net by net, normal biases:
    its zero biases would leave them out of every refine check."""
    d_g = edge_output_dim(edge, bg.dim)
    nets = (DiffNet.random(kg.dim, hidden, bg.dim, rng),
            DiffNet.random(kg.dim + bg.dim, hidden, 2 * kg.dim + 2 * d_g, rng))
    for net in nets:
        net.b1 = rng.normal(size=net.hidden_dim)
        net.b2 = rng.normal(size=net.out_dim)
    return nets


@pytest.fixture(scope="module")
def prefix_case():
    """Per edge, made on first use: a whole-table refine at desk dimensions
    and hidden width, with its inputs."""
    truth = generate(SynthSpec(n_entities=5300, seed=3))
    kg, bg = truth.kg, truth.bg

    @functools.cache
    def case(edge):
        proj, infer = random_nets(kg, bg, edge, 500, np.random.default_rng(11))
        return (kg, bg, proj, infer, *refine(kg, bg, proj, infer))
    return case


def assert_rows_match_loop_oracle(edge, d_w, d_z, hidden):
    kg, bg = tiny_tables(seed=6, n=ROW_BLOCK + 3, d_w=d_w, d_z=d_z)
    proj, infer = random_nets(kg, bg, edge, hidden, np.random.default_rng(9))
    kg_r, bg_r = refine(kg, bg, proj, infer)
    # The explicit-loop evaluation is an oracle within ROWS_ATOL (see
    # test_nets): the shift mean is the first kg.dim inference outputs on
    # (bg row, kg row). Refine computes only those outputs, a narrower
    # product than the whole net's, which moves the last bits at some widths
    # (kg 8, bg 8, hidden 50). Repeated refines agree bit for bit.
    for eid in kg.ids:
        kg_row, bg_row, kg_r_row, bg_r_row = (t.matrix[t.id_index[eid]]
                                              for t in (kg, bg, kg_r, bg_r))
        raw = straight_line_forward(infer, np.concatenate([bg_row, kg_row]))
        assert np.allclose(kg_r_row, kg_row + raw[:kg.dim], rtol=0, atol=ROWS_ATOL)
        assert np.allclose(bg_r_row, straight_line_forward(proj, kg_r_row),
                           rtol=0, atol=ROWS_ATOL)
    kg_again, bg_again = refine(kg, bg, proj, infer)
    assert np.array_equal(kg_again.matrix, kg_r.matrix)
    assert np.array_equal(bg_again.matrix, bg_r.matrix)


# Prefix lengths around the block height, on every edge; the translation
# cases keep the ids they had before the other edges were added.
PREFIX_CASES = [pytest.param(edge, m, id=str(m) if edge is Edge.TRANSLATION
                             else f"{edge.value}-{m}")
                for edge in Edge
                for m in (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2000, 5000)]


class TestRefine:
    def test_zero_inference_net_returns_kg_unchanged(self):
        kg, bg = tiny_tables(seed=4)
        d_g = edge_output_dim(Edge.TRANSLATION, bg.dim)
        proj = DiffNet.random(kg.dim, 4, bg.dim, np.random.default_rng(0))
        infer = zero_net(kg.dim + bg.dim, 4, 2 * kg.dim + 2 * d_g)
        kg_r, bg_r = refine(kg, bg, proj, infer)
        assert np.array_equal(kg_r.matrix, kg.matrix)
        assert kg_r.ids is kg.ids and bg_r.ids is kg.ids

    def test_rows_match_componentwise_recomputation(self):
        assert_rows_match_loop_oracle(Edge.TRANSLATION, 2, 3, 5)

    @pytest.mark.parametrize("edge,d_w,d_z,hidden", [
        (Edge.INNER_PRODUCT, 2, 3, 5), (Edge.IDENTITY, 2, 3, 5), (Edge.TRANSLATION, 8, 8, 50)])
    def test_other_edges_and_widths_match_the_loop_oracle(self, edge, d_w, d_z, hidden):
        assert_rows_match_loop_oracle(edge, d_w, d_z, hidden)

    @pytest.mark.parametrize("edge", list(Edge), ids=lambda e: e.value)
    def test_non_shift_outputs_leave_refine_bit_identical(self, edge):
        kg, bg = tiny_tables(seed=5, n=2 * ROW_BLOCK + 9, d_w=4, d_z=6)
        proj, infer = random_nets(kg, bg, edge, 30, np.random.default_rng(2))
        before = refine(kg, bg, proj, infer)
        infer.W2[kg.dim:] = np.random.default_rng(3).normal(size=infer.W2[kg.dim:].shape)
        infer.b2[kg.dim:] = 7.0
        after = refine(kg, bg, proj, infer)
        for old, new in zip(before, after):
            assert np.array_equal(old.matrix, new.matrix)

    @pytest.mark.parametrize("edge,m", PREFIX_CASES)
    def test_prefix_refines_to_whole_table_prefix_bit_for_bit(self, edge, m, prefix_case):
        kg, bg, proj, infer, kg_whole, bg_whole = prefix_case(edge)
        rows = range(m)
        kg_r, bg_r = refine(kg.subset(rows), bg.subset(rows), proj, infer)
        assert np.array_equal(kg_r.matrix, kg_whole.matrix[:m])
        assert np.array_equal(bg_r.matrix, bg_whole.matrix[:m])

    def test_refine_checksum_is_pinned(self):
        # Any change to how a row block is multiplied must leave the refined
        # bits alone. Hash taken at tool_version 0.3.2.
        truth = generate(SynthSpec(n_entities=300, seed=7))
        kg, bg = normalize_rows(truth.kg), normalize_rows(truth.bg)
        nets = random_nets(kg, bg, Edge.TRANSLATION, 50, np.random.default_rng(11))
        digest = hashlib.sha256()
        for table in refine(kg, bg, *nets):
            digest.update(table.matrix.tobytes())
        assert digest.hexdigest() == (
            "30b652ea0f8d166012d7c52e5436b69bbbb2e9787a7b522258dd0c138d622f6f")

    def test_inputs_not_mutated(self):
        kg, bg = tiny_tables(seed=7)
        before_kg = kg.matrix.copy()
        before_bg = bg.matrix.copy()
        rng = np.random.default_rng(1)
        d_g = edge_output_dim(Edge.TRANSLATION, bg.dim)
        proj = DiffNet.random(kg.dim, 4, bg.dim, rng)
        infer = DiffNet.random(kg.dim + bg.dim, 4, 2 * kg.dim + 2 * d_g, rng)
        refine(kg, bg, proj, infer)
        assert np.array_equal(kg.matrix, before_kg)
        assert np.array_equal(bg.matrix, before_bg)

    def test_dimension_mismatch(self):
        kg, bg = tiny_tables(seed=1)
        proj = zero_net(kg.dim + 1, 4, bg.dim)
        infer = zero_net(kg.dim + bg.dim, 4, 2 * kg.dim + 2 * bg.dim)
        with pytest.raises(ShapeError):
            refine(kg, bg, proj, infer)
        # An inference net with fewer outputs than kg.dim shift-mean rows.
        proj = zero_net(kg.dim, 4, bg.dim)
        infer = zero_net(kg.dim + bg.dim, 4, kg.dim - 1)
        with pytest.raises(ShapeError, match="W2 has shape"):
            refine(kg, bg, proj, infer)
