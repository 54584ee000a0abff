"""Worker processes and CSV text, the plumbing of ``run_mc`` and of the CSV writer and reader.

``_workers`` runs callables in forked processes, each sending its value back over a pipe. ``_csv_text`` writes every
CSV of the package, formatting cells with ``_repr_cells`` in parts of ``_part_count`` rows, part 0 in the caller and
the others in workers; ``_read_pvalue_csv`` reads ``analyze``'s input in the parts of ``_part_lines`` the same way.
``_usable_cpus`` caps every split, so one patch of it, of ``_workers`` or of the part sizes reaches all three users.
"""

from __future__ import annotations

import contextlib
import functools
import gzip  # noqa: F401  np.loadtxt's DataSource imports it on first use; loaded with the module instead
import os
import re
import stat
import sys

import numpy as np


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _workers(calls):
    """Run each callable of ``calls`` in a process of its own; yield, per call, a function that returns its value.

    On Linux the workers fork, whatever the platform's default method: they inherit their inputs, so nothing is
    pickled on the way in, and a spawned or forkserver worker would first import numpy and pi0rand (about 0.2 s).
    Each worker sends back its value, or the exception it raised, over a one-way pipe whose send end the parent does
    not keep, so a worker that dies gives an error instead of a hang. Leaving the block joins every worker, after
    terminating those whose value was not asked for. An empty ``calls`` starts no process and imports nothing.
    multiprocessing flushes stdout and stderr before it forks, so a worker does not print their buffered text again.
    The parent forks with one OS thread (``pi0rand/__init__.py`` loads OpenBLAS without its pool): a thread alive at
    the fork is missing in the child, with any lock it holds, and Python 3.12 warns on such a fork. Start no thread
    before this forks.
    """
    if not calls:
        yield []
        return
    import multiprocessing

    context = multiprocessing.get_context("fork" if sys.platform.startswith("linux") else None)
    started = []
    try:
        for call in calls:
            receive, send = context.Pipe(duplex=False)
            proc = context.Process(target=_send_result, args=(send, call))
            proc.start()
            started.append((proc, receive))
            send.close()
        yield [functools.partial(_receive_result, proc, receive) for proc, receive in started]
    finally:
        for proc, receive in started:
            if not receive.closed:  # left early: its value is no longer wanted
                proc.terminate()
                receive.close()
            proc.join()


def _send_result(send, call) -> None:
    """In a worker: send ``(True, call())``, or ``(False, exc)`` for the exception ``call`` raised."""
    try:
        result = True, call()
    except Exception as exc:
        result = False, exc
    send.send(result)


def _receive_result(proc, receive):
    """The value a worker sent, or the exception it raised, raised again."""
    with receive:
        try:
            ok, value = receive.recv()
        except EOFError:  # the worker ended without sending
            proc.join()
            raise RuntimeError(f"a worker process exited with code {proc.exitcode} before sending its result") from None
    if not ok:
        raise value
    return value


_CSV_BLOCK_ROWS = 1 << 15
_CSV_PART_ROWS = 1 << 16  # the fewest rows per part: two parts gained from 2^17 rows on, measured (README)


def _part_count(rows: int) -> int:
    """Parts of at least ``_CSV_PART_ROWS`` rows each, at most one per usable CPU: how a CSV is written or read."""
    return max(1, min(rows // _CSV_PART_ROWS, _usable_cpus()))


_POW10 = np.array([1e17, 1e18, 1e19, 1e20])  # exact doubles: 5^20 < 2^53
_SEP_WORDS = np.frombuffer(b",".ljust(8, b"\0") + b"\n".ljust(8, b"\0"), np.uint64)
# At 10 * z + d: "0.", z zeros and the digit d, right-aligned after NUL bytes in one uint64.
_LEAD_WORDS = np.frombuffer(b"".join((b"0." + b"0" * z + b"%d" % d).rjust(8, b"\0") for z in range(4)
                                     for d in range(10)), np.uint64)


# "0000" to "9999" as one uint32 of ASCII each, then at 10000 on the same with their trailing "0"s as NUL bytes.
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + 48  # row j: digit j of 0000 ... 9999, in ASCII
_KEPT = np.logical_or.accumulate(_DIGITS[::-1] > 48)[::-1]  # row j: a digit other than "0" at or after j
_DIGIT_WORDS = np.concatenate([_DIGITS, _DIGITS * _KEPT], axis=1).T.copy().view(np.uint32).ravel()


def _split(v):
    """Veltkamp's split of ``v`` into ``hi + lo``, each of at most 26 significant bits."""
    t = v * 134217729.0  # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _repr_cells(cells: np.ndarray, columns: int) -> str:
    """The float64 ``cells``, in row order, as rows of ``columns`` comma-separated ``repr(float)`` texts.

    numpy formats each cell x with 1e-4 <= x < 1 and a mantissa other than 1/2, as Ryu does (Adams, PLDI 2018): with
    e10 = floor(log10 x), x * 10^(16 - e10) = N + D exactly, N a 17-digit integer and |D| <= 1/2. In those units the
    numbers that read back as x lie strictly within hw, half an ulp of x, of N + D (below a power of two, within hw/2),
    and 0.555 < hw < 11.1. ``repr`` is the shortest decimal among them, the nearer of two: a multiple of 10^s below or
    above N + D within hw at the largest s that has one (one at s is one at s - 1 too). No multiple lies on a bound:
    a bound has 54 or more binary fraction digits, a multiple at most 20 decimal places, so the strict comparisons
    decide exactly. Where they decide, each float result is below 64 and a multiple of 2^-47, so exact too. ``repr``
    formats every other cell, an exact tie of two multiples and a carry to 10^17.
    """
    n = cells.size
    domain = (cells >= 1e-4) & (cells < 1.0)  # False at nan; other cells are replaced before any arithmetic
    x = np.where(domain, cells, 0.3)
    mantissa, exponent = np.frexp(x)
    z = np.clip(-1 - np.floor(np.log10(x)).astype(np.int64), 0, 3)  # -1 - e10, the zeros after "0."
    scale = _POW10[z]
    p = x * scale
    (xh, xl), (sh, sl) = _split(x), _split(scale)
    e = ((xh * sh - p) + xh * sl + xl * sh) + xl * sl  # x * scale = p + e exactly: Dekker's product
    whole = np.rint(e)
    N, D = p.astype(np.int64) + whole.astype(np.int64), e - whole  # p >= 2^53 is a whole number
    hw = np.ldexp(scale, exponent - 54)
    run = domain & (mantissa != 0.5) & (N >= 10**16) & (N < 10**17)  # N has 17 digits unless floor(log10 x) is one off
    s, at = np.zeros(n, np.int64), np.flatnonzero(run)  # s: the last s with a multiple of 10^s within hw so far
    n_at, d_at, hw_at = N[at], D[at], hw[at]  # of the cells with one at every s so far
    for step in range(1, 17):
        r = n_at % 10**step
        hit = np.flatnonzero((d_at < hw_at - r) | (d_at > (10**step - r) - hw_at))  # N - r or N - r + 10^s
        if not hit.size:
            break
        at, n_at, d_at, hw_at = at[hit], n_at[hit], d_at[hit], hw_at[hit]
        s[at] = step
    unit = 10**s
    r = N % unit
    down, up = D < hw - r, D > (unit - r) - hw  # N - r, N - r + 10^s lie within hw
    near = 2.0 * D - (unit - 2 * r)  # below 0 where N - r is the nearer
    best = N - r + np.where(up & ~(down & (near < 0)), unit, 0)
    back = ~run | (down & up & (near == 0)) | (best >= 10**17)
    best[back] = 10**16
    lead = best // 10**16
    hi, lo = np.divmod(best - lead * 10**16, 10**8)
    last = (15 - s) // 4  # the 4-digit group of the last significant digit: NUL from its trailing "0"s on
    words = np.empty((n, 4), np.uint64)  # per cell, text and separator among NUL bytes
    words[:, 0] = _LEAD_WORDS[10 * z + lead]
    for j, group in enumerate((hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4)):
        words.view(np.uint32)[:, 2 + j] = _DIGIT_WORDS[group + 10000 * (last <= j)]
    words[:, 3] = _SEP_WORDS[0]
    words[columns - 1 :: columns, 3] = _SEP_WORDS[1]
    if (fall := np.flatnonzero(back)).size:  # a repr has at most 24 characters
        words[fall, :3] = np.array([repr(v) for v in cells[fall].tolist()], "S24").view(np.uint64).reshape(-1, 3)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _csv_rows(columns, lo: int, hi: int):
    """Rows ``lo:hi`` of float columns as ``repr`` text, one ``_repr_cells`` call per ``_CSV_BLOCK_ROWS`` rows."""
    for a in range(lo, hi, _CSV_BLOCK_ROWS):
        cells = np.column_stack([col[a:min(a + _CSV_BLOCK_ROWS, hi)] for col in columns]).ravel()  # in row order
        yield _repr_cells(cells, len(columns))


def _csv_part(columns) -> str:
    """Every row of float columns as one text: the part a worker formats."""
    return "".join(_csv_rows(columns, 0, len(columns[0])))


def _csv_text(metadata: dict, header, columns):
    """``# key=value`` lines, the header row, then the columns row by row as ``repr(float)``, as blocks of text.

    The rows are cut into ``_part_count`` parts. Workers format parts 1 on, one each, while the caller formats part 0
    block by block; their texts follow it in order. Every row's text depends on its values alone, so the bytes do not
    depend on the parts. One part starts no worker.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    rows = len(columns[0])
    bounds = np.linspace(0, rows, _part_count(rows) + 1).astype(int).tolist()
    parts = [functools.partial(_csv_part, [col[a:b] for col in columns]) for a, b in zip(bounds[1:-1], bounds[2:])]
    with _workers(parts) as results:
        yield "".join(f"# {key}={val}\n" for key, val in metadata.items()) + ",".join(header) + "\n"
        yield from _csv_rows(columns, 0, bounds[1])
        for result in results:
            yield result()


def _open_text(path):
    """``path`` opened to write text with LF line ends, or stdout (left open on exit) when ``path`` is None."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8", newline="\n")


def _part_lines(raw, start, commas=0):
    """The line, counted from ``start``, where each part of the rows of ``raw[start:]`` begins, then None: the parts of
    ``_part_count``, each ending at the first line end past its share of the bytes. None alone where numpy would read
    the rows otherwise than the walk: a row (a line neither empty nor a comment) has other than ``commas`` commas, or
    a "#" does not begin its line. One part when an empty or comment line falls before the last part, since numpy's
    ``max_rows`` does not count it while ``skiprows`` does, or when the last part would begin with no row. ``raw`` is
    bytes with no lone CR.
    """
    text = np.frombuffer(raw, np.uint8)[start - 1:]  # from the header's line end
    line_end = text == 10
    if commas or raw.find(b",", start) >= 0 or raw.find(b"#", start) >= 0:  # else each row has its one field
        begins = np.flatnonzero(line_end[:-1]) + 1  # where each line after the header begins
        first, commas_at = text[begins], np.flatnonzero(text == 44)
        per_line = np.diff(np.searchsorted(commas_at, begins), append=commas_at.size)
        rows = (first != 10) & (first != 13) & (first != 35)  # neither empty nor a comment
        if (per_line[rows] != commas).any() or np.count_nonzero(first == 35) != np.count_nonzero(text == 35):
            return None
    parts = _part_count(np.count_nonzero(line_end) - 1)
    ends = [at + int(np.argmax(line_end[at:])) for at in ((text.size - 1) * i // parts for i in range(1, parts))]
    if ends:
        cut = ends[-1] + 1  # where the last part begins
        blank = (line_end[:cut - 1] & line_end[1:cut]).any()  # "\n\n", or "\n\r\n" below
        blank = blank or b"\r" in raw and (line_end[:cut - 2] & (text[1:cut - 1] == 13) & line_end[2:cut]).any()
        blank = blank or raw.find(b"#", start, start + cut) >= 0  # each "#" begins a line: a comment
        if blank or not line_end[ends].all() or len(set(ends)) < len(ends) or cut == text.size or text[cut] in (10, 13):
            ends = []
    return [0, *(int(np.count_nonzero(line_end[1:end + 1])) for end in ends), None]


def _read_pvalue_csv(path):
    """The p_lfc column of a CSV: numpy's C reader takes a well-formed regular file, in the parts of ``_part_lines``,
    and the walk any other, line by line, naming the first fault."""
    with open(path, "rb") as fh:
        data = fh.read()
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)  # a pipe could not be read a second time
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # the row is one more than the line ends (byte 10) before the fault
        raise ValueError(f"{path}: row {data.count(10, 0, exc.start) + 1}: not UTF-8 text") from None
    header_no, start, header = 0, int(raw[:1] == "\ufeff"), ""  # past the byte-order mark of a spreadsheet's CSV
    while not header or header[0] == "#":  # the header is the first line that strips to neither "" nor a comment
        if start > len(raw):
            raise ValueError(f"{path}: empty input")
        end = raw.find("\n", start)
        end = len(raw) if end < 0 else end
        header_no, header, start = header_no + 1, raw[start:end].strip(), end + 1
    columns = [col.strip() for col in header.split(",")]
    if "p_lfc" not in columns:
        raise ValueError(f"{path}: row {header_no}: header must contain a p_lfc column")
    col = columns.index("p_lfc")
    full_path = os.path.abspath(path)  # never read as a URL by numpy's DataSource
    plain = (regular and not full_path.endswith((".gz", ".bz2", ".xz", ".lzma"))  # numpy's DataSource would decompress
             and ("\r" not in raw or raw.count("\r") == raw.count("\r\n"))  # numpy would end a line at a lone CR too
             and all(raw.find(ch, start) < 0 for ch in "\x1c\x1d\x1e\x1f")  # numpy strips them off a field, float() not
             and re.compile(r"(?m)^[^\r\n#]").search(raw, start) is not None)  # numpy warns on a file of no rows
    bounds = _part_lines(data, len(raw[:start].encode()), len(columns) - 1) if plain else None
    if bounds:
        load = functools.partial(np.loadtxt, full_path, delimiter=",", comments="#", usecols=col, encoding="utf-8")
        parts = [functools.partial(load, skiprows=header_no + a, max_rows=None if b is None else b - a, ndmin=1)
                 for a, b in zip(bounds, bounds[1:])]
        # Suppressed: numpy rejects the text, or cannot open the file again. Workers read parts 1 on, the caller part 0.
        with contextlib.suppress(ValueError, OSError), _workers(parts[1:]) as results:
            values = np.concatenate([parts[0](), *(result() for result in results)])
            if len(values) >= 2 and np.all((values >= 0.0) & (values <= 1.0)):
                return values
    values = []  # the walk, line by line after the header
    for line_no, row in enumerate(map(str.strip, raw.replace("\r\n", "\n").split("\n")[header_no:]), header_no + 1):
        if not row or row[0] == "#":
            continue
        fields = row.split(",")
        if len(fields) != len(columns):
            raise ValueError(f"{path}: row {line_no}: expected {len(columns)} fields")
        try:
            values.append(float(fields[col]))
        except ValueError as exc:
            raise ValueError(f"{path}: row {line_no}: p_lfc value {fields[col]!r} is not a number") from exc
        if not 0.0 <= values[-1] <= 1.0:
            raise ValueError(f"{path}: row {line_no}: p_lfc value {values[-1]!r} outside [0, 1]")
    if len(values) < 2:
        raise ValueError(f"{path}: need at least two p-values, got {len(values)}")
    return np.array(values)
