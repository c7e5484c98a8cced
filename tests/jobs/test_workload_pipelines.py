"""The sparklite workload family: PageRank and n-grams, both backends.

Correctness against pure-Python references, plus the compiled-backend
properties the lecture points at: bit-identity with the in-memory
evaluator and per-iteration stage reuse through ``cache()``.
"""

import math

import pytest

from repro.jobs.ngrams import ngram_counts, top_ngrams
from repro.jobs.pagerank import generate_web_graph, pagerank
from repro.datasets.shakespeare import generate_shakespeare
from repro.sparklite import SparkLiteContext
from tests.jobs.reference_oracles import ngram_reference, pagerank_reference


@pytest.fixture(scope="module")
def graph():
    return generate_web_graph(seed=3, num_pages=40, avg_degree=3)


class TestPageRank:
    def test_local_matches_reference(self, graph):
        sc = SparkLiteContext.local(num_executors=3)
        result = pagerank(sc, graph.edges, iterations=4)
        reference = pagerank_reference(graph.edges, iterations=4)
        assert {p for p, _ in result.ranks} == set(reference)
        for page, rank in result.ranks:
            assert math.isclose(rank, reference[page], rel_tol=1e-9)

    def test_compiled_bit_identical_to_local(self, graph):
        local = pagerank(
            SparkLiteContext.local(3), graph.edges, iterations=3
        )
        compiled = pagerank(
            SparkLiteContext.on_mapreduce(num_workers=4, seed=1),
            graph.edges,
            iterations=3,
        )
        assert compiled.ranks == local.ranks  # exact, not approx

    def test_compiled_reuses_cached_stages(self, graph):
        sc = SparkLiteContext.on_mapreduce(num_workers=4, seed=1)
        pagerank(sc, graph.edges, iterations=3)
        runner = sc._compiled_runner()
        # The links table shuffles once but is read by every
        # iteration's join — cache hits must show up.
        assert runner.cache_hits >= 3
        assert runner.jobs_run < 6 * 3  # far fewer than recompute-all

    def test_top_k_is_deterministic(self, graph):
        sc = SparkLiteContext.local(3)
        result = pagerank(sc, graph.edges, iterations=3)
        top = result.top(5)
        assert len(top) == 5
        assert top == sorted(top, key=lambda kv: (-kv[1], kv[0]))


class TestNgrams:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_shakespeare(seed=5, num_plays=2, words_per_play=400)

    def test_local_matches_reference(self, corpus):
        sc = SparkLiteContext.local(num_executors=3)
        lines = sc.parallelize(corpus.text.splitlines(), 4)
        counts = dict(ngram_counts(lines, n=2).collect())
        assert counts == ngram_reference(corpus.text, n=2)

    def test_compiled_bit_identical_to_local(self, corpus):
        lines = corpus.text.splitlines()
        local_sc = SparkLiteContext.local(3)
        local = ngram_counts(local_sc.parallelize(lines, 4), n=3).collect()
        sc = SparkLiteContext.on_mapreduce(num_workers=4, seed=1)
        compiled = ngram_counts(sc.parallelize(lines, 4), n=3).collect()
        assert compiled == local

    def test_top_ngrams_ranking(self, corpus):
        sc = SparkLiteContext.local(3)
        counts = ngram_counts(sc.parallelize(corpus.text.splitlines(), 4))
        top = top_ngrams(counts, k=5)
        reference = ngram_reference(corpus.text)
        expected = sorted(
            reference.items(), key=lambda kv: (-kv[1], kv[0])
        )[:5]
        assert top == expected

    def test_windows_stay_inside_lines(self):
        sc = SparkLiteContext.local(2)
        lines = sc.parallelize(["a b", "c d"], 2)
        grams = dict(ngram_counts(lines, n=2).collect())
        assert grams == {"a b": 1, "c d": 1}  # no "b c" across lines
