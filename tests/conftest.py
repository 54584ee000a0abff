import pytest

from pi0rand import cli, pi0


@pytest.fixture()
def split_writer(monkeypatch):
    """CSVs cut into parts of 64 rows, written in blocks of 16, so that a few hundred rows start workers.

    Returns a setter of the usable CPUs, and the workers each split started: a list per ``"read"`` (the ``analyze``
    reader) and ``"write"`` (the CSV writer), in call order.
    """
    monkeypatch.setattr(pi0, "_CSV_PART_ROWS", 64)
    monkeypatch.setattr(pi0, "_CSV_BLOCK_ROWS", 16)
    started = {"read": [], "write": []}

    def recording(kind, module):
        real = module._workers

        def workers(calls):
            started[kind].append(len(calls))
            return real(calls)

        monkeypatch.setattr(module, "_workers", workers)

    recording("read", cli)
    recording("write", pi0)
    return lambda cpus: monkeypatch.setattr(pi0, "_usable_cpus", lambda: cpus), started
