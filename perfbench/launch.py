"""Small process that starts the benchmark's CLI calls, one at a time.

A child's ``ru_maxrss`` from ``wait4`` is at least the peak RSS of the
process that spawned it (its address space is shared or copied until
``exec``), so calls spawned by the runner itself would report the runner's
own memory.  run.py starts this script once per workload with
``python -I -S``, keeping its peak RSS near 10 MB, below any CLI call's.

Protocol, one JSON line each way per call.  stdin: ``[argv, stdout path,
stderr path]``.  stdout: ``{"pid": n}`` once the call is started, then
``[exit code, seconds from spawn to exit, max RSS in KiB]``.  The script
ends when stdin closes.
"""

import json
import os
import sys
import time


def main():
    for line in sys.stdin:
        argv, out, err = json.loads(line)
        fo = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        fe = os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [(os.POSIX_SPAWN_DUP2, fo, 1), (os.POSIX_SPAWN_DUP2, fe, 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        os.close(fo)
        os.close(fe)
        print(json.dumps({"pid": pid}), flush=True)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        print(json.dumps([os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss]),
              flush=True)


if __name__ == "__main__":
    main()
