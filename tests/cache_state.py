"""One fingerprint of a cache's whole internal state, for tests that assert
a refused call left a cache as it was, and the eviction grid of a cache that
evicted nothing."""


def raw_state(cache) -> list:
    """Every byte of the cache's buffers, its entry and recorded-row counts,
    and its eviction journal not yet drained."""
    journal = [[list(evicted) for evicted in heads] for heads in cache._journal]
    return [buf.tobytes() for buf in cache._buffers] + [list(cache._n), list(cache._recorded), journal]


def no_evictions(cache) -> list[list[list[int]]]:
    """The ``[layer][kv_head]`` eviction grid of a cache that evicted nothing."""
    return [[[] for _ in range(cache.n_kv_heads)] for _ in range(cache.n_layers)]
