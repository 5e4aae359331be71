"""Regressor layout: term indexing, expansion, prediction, embedding."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_terms_oracle, expand_oracle
from dsvolterra import (
    TermIndex,
    VolterraConfig,
    benchmark_channel,
    embed_kernel,
    expand,
    expand_series,
    position_of,
    term_at,
    total_dimension,
)
from dsvolterra.errors import DimensionMismatchError, InvalidTermError
from dsvolterra.volterra import _series_blocks


class TestConfig:
    def test_valid(self):
        cfg = VolterraConfig(order=3, memory=3)
        assert cfg.taps == 4
        assert cfg.regularization == 1e-9

    def test_zero_regularization_allowed(self):
        assert VolterraConfig(order=1, memory=0, regularization=0.0).regularization == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"order": 0, "memory": 1},
            {"order": -1, "memory": 1},
            {"order": 1, "memory": -1},
            {"order": 1, "memory": 1, "regularization": -1e-9},
            {"order": 1, "memory": 1, "regularization": float("nan")},
            {"order": 1, "memory": 1, "regularization": float("inf")},
            {"order": True, "memory": 1},
            {"order": 2.0, "memory": 1},
            {"order": 1, "memory": False},
            {"order": 1, "memory": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            VolterraConfig(**kwargs)

    @pytest.mark.parametrize("field", ["order", "memory"])
    @pytest.mark.parametrize("value", [True, 2.0])
    def test_integer_field_names_itself(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            VolterraConfig(**{"order": 1, "memory": 1, field: value})

    def test_pathological_size_rejected(self):
        with pytest.raises(ValueError, match="beyond the supported maximum"):
            VolterraConfig(order=12, memory=60)


class TestDimension:
    def test_single_tap_linear(self):
        assert total_dimension(VolterraConfig(1, 0)) == 1

    def test_quadratic_two_taps(self):
        assert total_dimension(VolterraConfig(2, 1)) == 5

    def test_cubic_four_taps(self):
        # 4 linear + 10 quadratic + 20 cubic
        assert total_dimension(VolterraConfig(3, 3)) == 34

    def test_matches_oracle_counts(self):
        for order in range(1, 5):
            for memory in range(0, 6):
                cfg = VolterraConfig(order, memory)
                assert total_dimension(cfg) == len(enumerate_terms_oracle(order, memory))


class TestTermIndexing:
    def test_first_linear_tap_is_first(self):
        for cfg in (VolterraConfig(1, 0), VolterraConfig(2, 1), VolterraConfig(3, 3)):
            assert position_of(TermIndex(1, (0,)), cfg) == 0

    def test_quadratic_positions(self):
        cfg = VolterraConfig(2, 1)
        assert position_of(TermIndex(2, (0, 0)), cfg) == 2
        assert position_of(TermIndex(2, (1, 1)), cfg) == 4

    def test_roundtrip_bijection_exhaustive(self):
        for order in range(1, 5):
            for memory in range(0, 6):
                cfg = VolterraConfig(order, memory)
                dim = total_dimension(cfg)
                seen = set()
                for position in range(dim):
                    term = term_at(position, cfg)
                    assert position_of(term, cfg) == position
                    seen.add((term.order, term.lags))
                assert len(seen) == dim

    def test_canonical_order_matches_oracle(self):
        cfg = VolterraConfig(3, 4)
        oracle = enumerate_terms_oracle(3, 4)
        for position, (p, lags) in enumerate(oracle):
            term = term_at(position, cfg)
            assert (term.order, term.lags) == (p, lags)

    def test_out_of_range_lag_rejected(self):
        cfg = VolterraConfig(2, 1)
        with pytest.raises(InvalidTermError):
            position_of(TermIndex(1, (2,)), cfg)

    def test_order_above_layout_rejected(self):
        cfg = VolterraConfig(2, 1)
        with pytest.raises(InvalidTermError):
            position_of(TermIndex(3, (0, 0, 0)), cfg)

    def test_position_out_of_range_rejected(self):
        cfg = VolterraConfig(2, 1)
        with pytest.raises(InvalidTermError):
            term_at(5, cfg)
        with pytest.raises(InvalidTermError):
            term_at(-1, cfg)

    @pytest.mark.parametrize(
        "order,lags",
        [(2, (1, 0)), (1, (-1,)), (2, (0,)), (0, ())],
    )
    def test_malformed_terms_rejected(self, order, lags):
        with pytest.raises(InvalidTermError):
            TermIndex(order, lags)


class TestExpand:
    def test_two_tap_quadratic(self):
        got = expand([2.0, 3.0], VolterraConfig(2, 1))
        np.testing.assert_array_equal(got, [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_zero_delay_line(self):
        cfg = VolterraConfig(3, 2)
        np.testing.assert_array_equal(expand(np.zeros(3), cfg), np.zeros(total_dimension(cfg)))

    def test_all_ones(self):
        cfg = VolterraConfig(3, 3)
        got = expand(np.ones(4), cfg)
        assert got.shape == (34,)
        np.testing.assert_array_equal(got, np.ones(34))

    def test_linear_block_is_delay_line_verbatim(self):
        rng = np.random.default_rng(7)
        cfg = VolterraConfig(3, 4)
        dl = rng.normal(size=5)
        np.testing.assert_array_equal(expand(dl, cfg)[:5], dl)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            expand([1.0, 2.0, 3.0], VolterraConfig(2, 1))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for order in range(1, 4):
            for memory in range(0, 5):
                cfg = VolterraConfig(order, memory)
                for _ in range(100):
                    dl = rng.normal(size=memory + 1)
                    got = expand(dl, cfg)
                    want = expand_oracle(dl, order, memory)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("order", range(1, 6))
    def test_bit_equal_to_left_to_right_product(self, order):
        # each monomial is multiplied in lag order, as math.prod does; the
        # engine's bit-for-bit agreement with the streaming path rests on it
        rng = np.random.default_rng(100 + order)
        for memory in range(0, 5):
            cfg = VolterraConfig(order, memory)
            terms = enumerate_terms_oracle(order, memory)
            for _ in range(40):
                dl = (rng.normal(size=memory + 1) * 10.0 ** rng.uniform(-3, 3, memory + 1)).tolist()
                want = [math.prod(dl[lag] for lag in lags) for _, lags in terms]
                np.testing.assert_array_equal(expand(dl, cfg), want)

    def test_homogeneity_by_block(self):
        # scaling the delay line by s scales the order-p block by s**p
        rng = np.random.default_rng(3)
        cfg = VolterraConfig(3, 3)
        dim = total_dimension(cfg)
        orders = np.array([term_at(i, cfg).order for i in range(dim)])
        for _ in range(50):
            dl = rng.normal(size=4)
            s = float(rng.uniform(0.1, 4.0))
            scaled = expand(s * dl, cfg)
            want = (s**orders) * expand(dl, cfg)
            np.testing.assert_allclose(scaled, want, rtol=1e-12)


class TestExpandSeries:
    def test_rows_match_streaming_expansion(self):
        rng = np.random.default_rng(11)
        cfg = VolterraConfig(3, 3)
        x = rng.normal(size=40)
        matrix = expand_series(x, cfg)
        delay = np.zeros(cfg.taps)
        for k in range(len(x)):
            delay[1:] = delay[:-1]
            delay[0] = x[k]
            np.testing.assert_array_equal(matrix[k], expand(delay, cfg))

    @pytest.mark.parametrize("order, memory", [(4, 3), (5, 2)])
    def test_rows_bit_equal_to_expand_at_high_order(self, order, memory):
        # long enough to span several row blocks, the last one partial
        rng = np.random.default_rng(order)
        cfg = VolterraConfig(order, memory)
        x = rng.normal(size=1300) * 10.0 ** rng.uniform(-2, 2, 1300)
        matrix = expand_series(x, cfg)
        delay = np.zeros(cfg.taps)
        for k in range(len(x)):
            delay[1:] = delay[:-1]
            delay[0] = x[k]
            np.testing.assert_array_equal(matrix[k], expand(delay, cfg))

    @pytest.mark.parametrize("order, memory", [(1, 3), (2, 0), (3, 0), (3, 3), (3, 8)])
    def test_matrix_is_row_major(self, order, memory):
        # the engine steps on X's rows as given, and its alpha equals the
        # streaming x.dot(x) bit for bit only on contiguous rows
        x = np.random.default_rng(2).normal(size=700)
        assert expand_series(x, VolterraConfig(order, memory)).flags.c_contiguous

    def test_working_memory_stays_near_the_result(self):
        # the chain runs on row blocks, so the only large allocation is the
        # result itself; gathering every term's lags at once took 3.3x
        x = np.random.default_rng(5).normal(size=20_000)
        tracemalloc.start()
        try:
            matrix = expand_series(x, VolterraConfig(3, 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * matrix.nbytes

    def test_rejects_matrix_input(self):
        with pytest.raises(DimensionMismatchError):
            expand_series(np.zeros((3, 3)), VolterraConfig(1, 1))


class TestSupportBlocks:
    # one short block alone, and final blocks of 3 and of 300 rows after two
    # full ones
    @pytest.mark.parametrize("size", [40, 1027, 1324])
    def test_only_the_support_and_its_prefixes_are_formed(self, size):
        cfg = VolterraConfig(3, 3)
        x = np.random.default_rng(size).normal(size=size)
        support = [position_of(TermIndex(*term), cfg) for term in ((3, (0, 1, 3)), (2, (2, 2)))]
        prefixes = [TermIndex(1, (0,)), TermIndex(2, (0, 1)), TermIndex(1, (2,))]
        formed = sorted(support + [position_of(term, cfg) for term in prefixes])
        unformed = np.setdiff1d(np.arange(total_dimension(cfg)), formed)
        full = expand_series(x, cfg)
        for rows, block in _series_blocks(x, cfg, np.array(support)):
            np.testing.assert_array_equal(block[:, formed], full[rows][:, formed])
            assert not block[:, unformed].any()


class TestPredict:
    def test_zero_kernel(self):
        cfg = VolterraConfig(2, 1)
        x = expand([1.0, 2.0], cfg)
        assert np.zeros(5) @ x == 0.0

    def test_unit_tap_picks_newest_sample(self):
        cfg = VolterraConfig(2, 3)
        w = np.zeros(total_dimension(cfg))
        w[position_of(TermIndex(1, (0,)), cfg)] = 1.0
        assert w @ expand([5.0, -1.0, 2.0, 0.5], cfg) == 5.0

    def test_benchmark_kernel_hand_value(self):
        ch = benchmark_channel()
        assert ch.kernel @ expand([1.0, 0.0, 1.0, 0.0], ch.config) == pytest.approx(
            1.74, rel=1e-12
        )

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=100)
    def test_linearity_in_kernel(self, a, b, seed):
        rng = np.random.default_rng(seed)
        cfg = VolterraConfig(2, 2)
        dim = total_dimension(cfg)
        w1, w2 = rng.normal(size=dim), rng.normal(size=dim)
        x = expand(rng.normal(size=3), cfg)
        lhs = (a * w1 + b * w2) @ x
        rhs = a * (w1 @ x) + b * (w2 @ x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestEmbedKernel:
    def test_channel_embeds_into_filter_layout(self):
        ch = benchmark_channel()
        target = VolterraConfig(3, 3)
        embedded = embed_kernel(ch.kernel, ch.config, target)
        assert embedded.shape == (34,)
        assert np.count_nonzero(embedded) == 4
        # predictions agree between layouts on the same delay line
        rng = np.random.default_rng(5)
        for _ in range(20):
            dl = rng.normal(size=4)
            assert embedded @ expand(dl, target) == pytest.approx(
                ch.kernel @ expand(dl, ch.config), rel=1e-12
            )

    def test_embedding_preserves_term_values(self):
        ch = benchmark_channel()
        target = VolterraConfig(3, 3)
        embedded = embed_kernel(ch.kernel, ch.config, target)
        assert embedded[position_of(TermIndex(1, (0,)), target)] == -0.76
        assert embedded[position_of(TermIndex(2, (0, 2)), target)] == 2.0
        assert embedded[position_of(TermIndex(2, (3, 3)), target)] == -0.5

    def test_shrinking_layout_rejected(self):
        ch = benchmark_channel()
        with pytest.raises(DimensionMismatchError):
            embed_kernel(ch.kernel, ch.config, VolterraConfig(2, 2))

    def test_wrong_kernel_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            embed_kernel(np.zeros(3), VolterraConfig(2, 1), VolterraConfig(2, 2))
