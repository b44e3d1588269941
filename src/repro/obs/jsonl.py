"""JSON-lines files: the one appender and the one reader.

The ``--trace`` event log, the span spools and the serve access log
are written by :class:`JsonlSink` and read by :func:`iter_records`;
only the campaign journal, which fsyncs, has its own.
"""

import json
import os
import threading

from repro.ioutil import ensure_parent


class JsonlSink:
    """Appends records as JSON lines to a file path or a borrowed stream.

    - Each record is one line, written and flushed under a lock: threads
      never interleave within a line, and a crash tears at most the
      last line, which the readers skip.
    - A path is created when the sink is built and opened on the first
      write, in append mode; a forked process (pool worker, campaign
      cell) opens its own handle at :attr:`path`.
    - ``append=False`` (the ``--trace`` log) empties the file when the
      sink is built; spools and access logs append.
    - A borrowed stream (``sys.stderr``) is never reopened or closed.

    After :meth:`close`, :meth:`write` raises :class:`ValueError`.
    """

    def __init__(self, target, append=False):
        self._lock = threading.Lock()
        self._closed = False
        self._pid = os.getpid()
        self._owns_handle = not hasattr(target, "write")
        if self._owns_handle:
            self._handle = None
            self._path = os.fspath(target)
            # Creating (or emptying) the file now makes a bad path fail
            # here rather than at the first record.
            open(ensure_parent(self.path), "a" if append else "w").close()
        else:
            self._handle = target
            self._path = getattr(target, "name", None)

    @property
    def path(self):
        """The file this process writes to."""
        return self._path

    def write(self, record):
        line = json.dumps(record, sort_keys=False) + "\n"
        with self._lock:
            if self._closed:
                raise ValueError("write to a closed JsonlSink")
            if self._owns_handle and (
                    self._handle is None or self._pid != os.getpid()):
                if self._handle is not None:  # inherited across fork()
                    self._handle.close()
                self._handle = open(self.path, "a", encoding="utf-8")
                self._pid = os.getpid()
            self._handle.write(line)
            self._handle.flush()

    def close(self):
        with self._lock:
            self._closed = True
            if self._owns_handle and self._handle is not None \
                    and self._pid == os.getpid():
                self._handle.close()
            self._handle = None


def iter_records(path, strict=True, corrupt=None):
    """Yield raw record dicts from a JSONL file.

    With ``strict=True`` (the default) a malformed line raises
    :class:`ValueError` with the path and line number.  With
    ``strict=False`` the bad line is skipped — matching the campaign
    journal's torn-tail contract, since a crash mid-write legitimately
    truncates the final line — and, when ``corrupt`` is a list, a
    ``(line_number, message)`` pair is appended per skipped line so
    consumers can surface a warning.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{line_number}: bad trace record: {exc}"
                    ) from exc
                if corrupt is not None:
                    corrupt.append((line_number, str(exc)))
