"""Codebook constructions, rank checks, and waveform quality metrics."""

import hashlib
from dataclasses import FrozenInstanceError
from itertools import combinations

import numpy as np
import pytest
from scipy.signal import max_len_seq

from radartag import (
    EmptyCodebookError,
    InfeasibleDimensionsError,
    NotPreferredPairError,
    OddLengthError,
    RateTooLargeError,
    SourceCodebook,
    TagCodebook,
    UnsupportedDegreeError,
    check_pilot_conditions,
    check_source_separability,
    check_tag_separability,
    gen_gold,
    gen_tag_codebook,
    numeric_rank,
    pilot_table,
    waveform_quality,
)
from radartag.channel import conv_matrix_from_code
from radartag.codebooks import _m_sequence


@pytest.fixture(scope="module")
def gold():
    return gen_gold(5)


class TestGenGold:
    def test_family_size_and_length(self, gold):
        assert len(gold) == 33
        assert gold.n == 31
        assert gold.words.shape == (33, 31)

    def test_words_unimodular(self, gold):
        assert np.all(np.abs(gold.words) == 1)
        assert np.all(np.sum(gold.words ** 2, axis=1) == 31)

    def test_preferred_pair_cross_correlation_three_valued(self):
        # exhaustive oracle over all 31 cyclic shifts of the two m-sequences
        book = gen_gold(5)
        u, v = book.words[0], book.words[1]
        values = {int(np.dot(u, np.roll(v, k))) for k in range(31)}
        assert values == {-1, -9, 7}

    def test_unsupported_degree(self):
        with pytest.raises(UnsupportedDegreeError):
            gen_gold(4)
        with pytest.raises(UnsupportedDegreeError):
            gen_gold(2)

    def test_not_preferred_pair_rejected(self):
        # x^5+x^2+1 with x^5+x^3+1 is the reciprocal pair: four-valued
        with pytest.raises(NotPreferredPairError):
            gen_gold(5, ((5, 2, 0), (5, 3, 0)))

    def test_non_primitive_rejected(self):
        # x^5+x^4+1 = (x^2+x+1)(x^3+x^2... ) is reducible, not maximal length
        with pytest.raises(NotPreferredPairError):
            gen_gold(5, ((5, 4, 0), (5, 2, 0)))


class TestMSequence:
    @pytest.mark.parametrize("degree", range(3, 12))
    def test_matches_scipy_max_len_seq(self, degree):
        # every tap set of 1-3 taps, primitive or not, from the all-ones state
        for k in (1, 2, 3):
            for taps in combinations(range(1, degree), k):
                expected = 1 - 2 * max_len_seq(degree, taps=list(taps))[0].astype(np.int64)
                got = _m_sequence(degree, (degree, *taps, 0))
                assert got.dtype == np.int64
                assert np.array_equal(got, expected), (degree, taps)

    def test_gold_words_pinned(self, gold):
        # sha256 of the int64 words as scipy's max_len_seq produced them
        digest = hashlib.sha256(np.ascontiguousarray(gold.words, dtype="<i8").tobytes())
        assert digest.hexdigest() == (
            "31ac5a6825cf0e636c20eac23bee05e5ddd6bca370b62d961792b99b8ef63f2b")


class TestGenTagCodebook:
    def test_paper_count_at_length_10(self):
        assert len(gen_tag_codebook(10)) == 126

    def test_full_enumeration_at_length_4(self):
        book = gen_tag_codebook(4)
        # oracle: of the 16 vectors, 6 have zero sum; 3 antipodal pairs
        want = {(1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)}
        assert {tuple(w) for w in book.words} == want

    def test_zero_sum_constraint(self):
        for length in (4, 6, 8, 10, 12):
            book = gen_tag_codebook(length)
            assert np.all(book.words.sum(axis=1) == 0)

    def test_cardinality_formula(self):
        from math import comb
        for length in (4, 6, 8, 10, 12):
            assert len(gen_tag_codebook(length)) == comb(length, length // 2) // 2

    def test_odd_length_rejected(self):
        with pytest.raises(OddLengthError):
            gen_tag_codebook(5)

    def test_strict_correlation_separation(self):
        # |x1^T x2| < l for all distinct pairs (antipodal pairs excluded)
        for length in (4, 6, 8, 10, 12):
            book = gen_tag_codebook(length)
            gram = np.abs(book.words @ book.words.T)
            off = gram[~np.eye(len(book), dtype=bool)]
            assert np.all(off < length)


class TestSeparabilityChecks:
    def test_tag_codebook_passes(self):
        assert check_tag_separability(gen_tag_codebook(10))

    def test_antipodal_pair_fails(self):
        w = np.array([1, 1, -1, -1])
        book = TagCodebook(l=4, words=np.stack([w, -w]))
        assert not check_tag_separability(book)

    def test_three_word_example(self):
        book = gen_tag_codebook(4)
        assert check_tag_separability(book)

    def test_gold_source_separability_q2(self, gold):
        assert check_source_separability(gold, 2)

    def test_cyclic_shift_pair_matches_svd_oracle(self):
        rng = np.random.default_rng(3)
        c1 = 1 - 2 * rng.integers(0, 2, 7)
        c2 = np.roll(c1, 3)
        book = SourceCodebook(n=7, words=np.stack([c1, c2]))
        stacked = np.hstack([conv_matrix_from_code(c1, 1), conv_matrix_from_code(c2, 1)])
        assert stacked.shape == (8, 4)
        assert check_source_separability(book, 1) == (numeric_rank(stacked) == 4)

    def test_infeasible_dimensions(self, gold):
        with pytest.raises(InfeasibleDimensionsError):
            check_source_separability(gold, 30)

    def test_sign_flip_invariance(self, gold):
        words = gold.words[:4].copy()
        book1 = SourceCodebook(n=31, words=words)
        book2 = SourceCodebook(n=31, words=-words)
        assert check_source_separability(book1, 2) == check_source_separability(book2, 2)



def _pairwise_tag_oracle(book):
    return all(numeric_rank(np.stack([u, v], axis=1)) == 2
               for u, v in combinations(book.words, 2))


def _pairwise_source_oracle(book, q):
    mats = conv_matrix_from_code(book.words, q)
    return all(numeric_rank(np.hstack([a, b])) == 2 * (q + 1)
               for a, b in combinations(mats, 2))


def _random_pm1_book(rng, length, m, antipodes):
    """m distinct +/-1 words of the given length, ``antipodes`` of them negated copies."""
    codes = rng.choice(2 ** (length - 1), m - antipodes, replace=False)
    words = 1 - 2 * ((codes[:, None] >> np.arange(length)) & 1)
    # random signs keep the antipodal copies from always starting with -1
    words = words * rng.choice([-1, 1], size=(len(words), 1))
    return np.vstack([words, -words[:antipodes]])


class TestCodebookInvariants:
    """Codebooks are validated once, at construction, and cannot change after."""

    def test_non_zero_sum_tag_book_rejected(self):
        # a random 16-word book of length 10: pilot-free decoding needs the
        # zero-sum words, so the type refuses the book instead of decoding it
        words = _random_pm1_book(np.random.default_rng(22), 10, 16, 0)
        assert np.any(words.sum(axis=1) != 0)
        with pytest.raises(ValueError, match="sum to zero"):
            TagCodebook(l=10, words=words)

    @pytest.mark.parametrize("make", [lambda w: SourceCodebook(n=4, words=w),
                                      lambda w: TagCodebook(l=4, words=w)])
    def test_empty_words_rejected(self, make):
        with pytest.raises(EmptyCodebookError):
            make(np.zeros((0, 4), dtype=np.int64))

    @pytest.mark.parametrize("make", [lambda w: SourceCodebook(n=4, words=w),
                                      lambda w: TagCodebook(l=4, words=w)])
    def test_frozen_with_read_only_copied_words(self, make):
        given = np.array([[1, 1, -1, -1], [1, -1, 1, -1]])
        book = make(given)
        with pytest.raises(FrozenInstanceError):
            book.words = given
        with pytest.raises(ValueError):
            book.words[0, 0] = -1
        given[0, 0] = -1      # the caller's array stays writable and separate
        assert book.words[0, 0] == 1 and book.words.dtype == np.int64


class TestSeparabilityClosedForms:
    def test_tag_check_matches_pairwise_rank_oracle(self):
        rng = np.random.default_rng(61)
        outcomes = {True: 0, False: 0}
        for trial in range(300):
            length = int(rng.choice([4, 6, 8]))
            if trial % 2:
                pool = gen_tag_codebook(length).words
                pool = np.vstack([pool, -pool])
                idx = rng.choice(len(pool), int(rng.integers(2, min(len(pool), 9))),
                                 replace=False)
                book = TagCodebook(l=length, words=pool[idx])
            else:
                # distinct words up to sign, random signs, some antipodal copies
                pool = gen_tag_codebook(length).words
                m = int(rng.integers(2, min(len(pool), 8) + 1))
                antipodes = int(rng.integers(0, m // 2 + 1))
                words = pool[rng.choice(len(pool), m - antipodes, replace=False)]
                words = words * rng.choice([-1, 1], size=(len(words), 1))
                book = TagCodebook(l=length, words=np.vstack([words, -words[:antipodes]]))
            want = _pairwise_tag_oracle(book)
            assert check_tag_separability(book) == want
            outcomes[want] += 1
        assert min(outcomes.values()) >= 50

    def test_source_check_matches_pairwise_rank_oracle(self):
        rng = np.random.default_rng(62)
        outcomes = {True: 0, False: 0}
        for _ in range(200):
            n = int(rng.integers(4, 9))
            q = int(rng.integers(0, n - 1))
            m = int(rng.integers(2, 6))
            book = SourceCodebook(n=n, words=_random_pm1_book(
                rng, n, m, int(rng.integers(0, 2))))
            want = _pairwise_source_oracle(book, q)
            assert check_source_separability(book, q) == want
            outcomes[want] += 1
        assert min(outcomes.values()) >= 30

    @pytest.mark.parametrize("q", [0, 2, 14, 29])
    def test_gold_source_check_matches_pairwise_rank_oracle(self, gold, q):
        assert check_source_separability(gold, q) == _pairwise_source_oracle(gold, q)


class TestPilotConditions:
    def test_alternating_pilot_with_gold_prefix(self, gold):
        x_pilot = np.array([1, -1, 1, -1])
        assert check_pilot_conditions(x_pilot, gold.words[0][:3], 2)

    def test_all_ones_pilot_fails(self):
        assert not check_pilot_conditions(np.array([1, 1]), np.array([1, -1, 1]), 2)

    def test_matches_triangular_toeplitz_rank_oracle(self, gold):
        c_pilot = gold.words[5][:3]
        block = conv_matrix_from_code(c_pilot, 2)[:3, :]
        assert block.shape == (3, 3)
        got = check_pilot_conditions(np.array([1, -1]), c_pilot, 2)
        assert got == (numeric_rank(block) == 3)

    def test_short_source_pilot_fails(self):
        # two pilot chips cannot resolve three taps
        assert not check_pilot_conditions(np.array([1, -1]), np.array([1, -1]), 2)


class TestWaveformQuality:
    def test_two_chip_word(self):
        q = waveform_quality(np.array([1.0, 1.0]))
        assert q.psl_db == pytest.approx(20 * np.log10(0.5), abs=1e-12)
        assert q.islr_db == pytest.approx(10 * np.log10(2 / 4), abs=1e-12)

    def test_sign_pattern_irrelevant_at_length_two(self):
        q = waveform_quality(np.array([1.0, -1.0]))
        assert q.psl_db == pytest.approx(-6.0206, abs=1e-3)
        assert q.islr_db == pytest.approx(-3.0103, abs=1e-3)

    def test_peak_equals_length(self, gold):
        for w in gold.words[:5]:
            r = np.correlate(w.astype(float), w.astype(float), "full")
            assert r[len(w) - 1] == len(w)

    def test_worst_gold_word_matches_bruteforce(self, gold):
        # brute-force oracle: full aperiodic autocorrelation per word
        worst_psl = -np.inf
        worst_islr = -np.inf
        for w in gold.words:
            c = w.astype(float)
            r = np.correlate(c, c, "full")
            mid = len(c) - 1
            side = np.concatenate([r[:mid], r[mid + 1:]])
            worst_psl = max(worst_psl, 20 * np.log10(np.max(np.abs(side)) / r[mid]))
            worst_islr = max(worst_islr, 10 * np.log10(np.sum(side ** 2) / r[mid] ** 2))
        got_psl = max(waveform_quality(w).psl_db for w in gold.words)
        got_islr = max(waveform_quality(w).islr_db for w in gold.words)
        assert got_psl == pytest.approx(worst_psl, abs=1e-9)
        assert got_islr == pytest.approx(worst_islr, abs=1e-9)


class TestPilotTable:
    def test_rate_zero_is_mean_over_full_words(self, gold):
        rows = pilot_table(gold, [0])
        psl_ratios = [10 ** (waveform_quality(w).psl_db / 20) for w in gold.words]
        want = 20 * np.log10(np.mean(psl_ratios))
        assert rows[0].psl_db == pytest.approx(want, abs=1e-9)

    def test_monotone_degradation_with_rate(self, gold):
        rows = pilot_table(gold, [0, 2, 4, 6])
        psl = [r.psl_db for r in rows]
        islr = [r.islr_db for r in rows]
        assert all(a < b for a, b in zip(psl, psl[1:]))
        assert all(a < b for a, b in zip(islr, islr[1:]))

    def test_rate_budget(self, gold):
        with pytest.raises(RateTooLargeError):
            pilot_table(gold, [20])

    def test_small_rate_matches_direct_enumeration(self, gold):
        # independent oracle at rate 2: explicit loops, no FFT
        rows = pilot_table(gold, [2])
        worst_psl = []
        worst_islr = []
        for w in gold.words:
            best_p, best_i = 0.0, 0.0
            for bits in range(4):
                suffix = [1 - 2 * ((bits >> 1) & 1), 1 - 2 * (bits & 1)]
                c = np.concatenate([w[:29], suffix]).astype(float)
                r = np.correlate(c, c, "full")
                mid = len(c) - 1
                side = np.concatenate([r[:mid], r[mid + 1:]])
                best_p = max(best_p, np.max(np.abs(side)) / r[mid])
                best_i = max(best_i, np.sum(side ** 2) / r[mid] ** 2)
            worst_psl.append(best_p)
            worst_islr.append(best_i)
        assert rows[0].psl_db == pytest.approx(20 * np.log10(np.mean(worst_psl)), abs=1e-9)
        assert rows[0].islr_db == pytest.approx(10 * np.log10(np.mean(worst_islr)), abs=1e-9)
