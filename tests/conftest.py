import sys

import pytest

from pi0rand import _tableio


@pytest.fixture()
def split_writer(monkeypatch):
    """CSVs cut into parts of 64 rows, written in blocks of 16, so that a few hundred rows start workers.

    Returns a setter of the usable CPUs, and the workers each split started: a list per ``"read"`` (the ``analyze``
    reader) and ``"write"`` (the CSV writer), in call order, told apart by the function that asks for them.
    """
    monkeypatch.setattr(_tableio, "_CSV_PART_ROWS", 64)
    monkeypatch.setattr(_tableio, "_CSV_BLOCK_ROWS", 16)
    started = {"read": [], "write": []}
    kinds, real = {"_read_pvalue_csv": "read", "_csv_text": "write"}, _tableio._workers

    def workers(calls):
        kind = kinds.get(sys._getframe(1).f_code.co_name)
        if kind:
            started[kind].append(len(calls))
        return real(calls)

    monkeypatch.setattr(_tableio, "_workers", workers)
    return lambda cpus: monkeypatch.setattr(_tableio, "_usable_cpus", lambda: cpus), started
