"""One fingerprint of a cache's whole internal state, for tests that assert
a refused call left a cache as it was."""


def raw_state(cache) -> list:
    """Every byte of the cache's buffers, its entry and recorded-row counts,
    and its eviction journal not yet drained."""
    journal = [(layer, head, list(evicted)) for layer, head, evicted in cache._journal]
    return [buf.tobytes() for buf in cache._buffers] + [list(cache._n), list(cache._recorded), journal]
