"""Running covbias subcommands as child processes, and counting operations.

An operation is one CLI invocation or one output check. An invocation fails
when it exits non-zero; a check fails when it raises. Each invocation is
reaped with wait4, so its wall time, CPU time and peak RSS are its own and
never mix with those of other children.

Linux carries the high-water RSS of the address space a process replaces at
exec into the new program's peak RSS, and a forked child starts from its
parent's address space. A child of the benchmark process, which holds
corpora and models for its checks, would report the benchmark's peak RSS
instead of its own. So invocations are started by a small launcher process
that imports nothing heavy and stays below any covbias process in size.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field


class StepFailed(Exception):
    """A CLI invocation exited non-zero; the rest of its phase cannot run."""


class CheckFailed(Exception):
    """An output differs from what the method or an independent computation gives."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Invocation:
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)


# Reads one JSON request per line (argv, cwd, env, stderr path), runs it and
# answers [exit code, wall s, cpu s, peak rss KiB].
_LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    req = json.loads(line)
    with open(req["stderr"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]), flush=True)
"""


class Runner:
    """Runs `python -m covbias` from the checkout's src/ and logs each invocation."""

    def __init__(self, root: str, workdir: str, tally: Tally):
        self.workdir = workdir
        self.tally = tally
        self.log: list[Invocation] = []
        self.passed: dict[str, str] = {}
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _LAUNCHER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def cli(self, command: str, *args: object) -> None:
        argv = [sys.executable, "-m", "covbias", command, *map(str, args)]
        self.tally.attempted += 1
        err_path = os.path.join(self.workdir, "stderr.txt")
        request = {"argv": argv, "cwd": self.workdir, "env": self.env, "stderr": err_path}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        code, wall, cpu, rss_kib = json.loads(self.launcher.stdout.readline())
        self.log.append(Invocation(command, wall, cpu, rss_kib / 1024))
        if code != 0:
            with open(err_path, encoding="utf-8", errors="replace") as handle:
                detail = handle.read().strip()[-500:]
            self.tally.fail(f"{command} exited {code}: {detail}")
            raise StepFailed(command)

    def check(self, name: str, fn, *args) -> None:
        check_cached(self.passed, self.tally, name, fn, *args)


def check_cached(passed: dict[str, str], tally: Tally, name: str, fn, *args) -> None:
    """Run a check; on a repeat, bytes equal to those that passed it pass it again.

    The files a check reads are the string arguments that name files.
    Comparing their digest with the one recorded in `passed` when the check
    last passed keeps a check in every round at the cost of reading the files.
    """
    files = [a for a in args if isinstance(a, str) and os.path.isfile(a)]
    digest = _digest(files)
    if files and passed.get(name) == digest:
        tally.attempted += 1
        return
    if run_check(tally, name, fn, *args):
        passed[name] = digest


def _digest(paths: list[str]) -> str:
    h = hashlib.blake2b()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0" + path.encode())
    return h.hexdigest()


def run_check(tally: Tally, name: str, fn, *args) -> bool:
    tally.attempted += 1
    try:
        fn(*args)
    except CheckFailed as exc:
        tally.fail(f"check {name}: {exc}")
    except Exception as exc:  # a malformed output must not stop the run
        tally.fail(f"check {name}: {type(exc).__name__}: {exc}")
    else:
        return True
    return False


def run_phase(tally: Tally, phase, *args) -> None:
    """Run one phase of a workload; a failed step ends it."""
    try:
        phase(*args)
    except StepFailed:
        pass
    except Exception as exc:  # glue between steps read a malformed output
        tally.fail(f"{phase.__name__}: {type(exc).__name__}: {exc}")
