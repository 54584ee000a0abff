import pytest

from pi0rand import pi0


@pytest.fixture()
def split_writer(monkeypatch):
    """The CSV writer cut into parts of 64 rows, in blocks of 16, so that a few hundred rows start a pool.

    Returns a setter of the writer's usable CPUs, and the list of the pool size each write started.
    """
    monkeypatch.setattr(pi0, "_CSV_PART_ROWS", 64)
    monkeypatch.setattr(pi0, "_CSV_BLOCK_ROWS", 16)
    pools, real = [], pi0._process_pool

    def recording(workers):
        pools.append(workers)
        return real(workers)

    monkeypatch.setattr(pi0, "_process_pool", recording)
    return lambda cpus: monkeypatch.setattr(pi0, "_usable_cpus", lambda: cpus), pools
