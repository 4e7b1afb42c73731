import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from parmcmc import parallel

# an outer 2-task region whose tasks each open two 2-task regions, then one
# whose tasks open a 1-task region that opens a 2-task region
NESTED_REGIONS = textwrap.dedent("""
    from parmcmc.parallel import run_region

    def outer():
        return [run_region([lambda: 1, lambda: 2]), run_region([lambda: 3, lambda: 4])]

    def through_one_task():
        return run_region([lambda: run_region([lambda: 5, lambda: 6])])

    print(run_region([outer, outer]))
    print(run_region([through_one_task, through_one_task]))
""")

# regions of 2, 3 and 6 tasks, twice over; each task waits at a barrier until
# its whole region has started, so every region holds as many threads as tasks
REGION_SIZES = textwrap.dedent("""
    import threading
    from parmcmc.parallel import run_region

    before = threading.active_count()
    for _ in range(2):
        for n in (2, 3, 6):
            barrier = threading.Barrier(n, timeout=30)
            run_region([barrier.wait] * n)
    print(threading.active_count() - before)
""")

# one 2-task region whose tasks meet at a barrier, so both run at once
TWO_TASK_REGION = textwrap.dedent("""
    import threading
    from parmcmc.parallel import run_region

    before = threading.active_count()
    barrier = threading.Barrier(2, timeout=30)
    run_region([barrier.wait] * 2)
    print(threading.active_count() - before)
""")


def test_nested_regions_do_not_deadlock():
    # a hung region leaves a non-daemon pool thread behind, which would keep
    # the test process from exiting, so the nesting runs in a child process
    src = os.path.dirname(os.path.dirname(os.path.abspath(parallel.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NESTED_REGIONS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[[[1, 2], [3, 4]], [[1, 2], [3, 4]]]",
                                        "[[[5, 6]], [[5, 6]]]"]


def test_one_task_region_leaves_nested_regions_parallel():
    # a lone task runs on the caller's thread without marking it, so a
    # 2-task region it opens still fans out: the caller runs the first
    # task, a pool thread the second
    def nested():
        return parallel.run_region([lambda: threading.current_thread().name] * 2)

    [names] = parallel.run_region([nested])
    assert len(set(names)) == 2, names
    assert any(name.startswith("region") for name in names), names


def test_failed_region_waits_for_every_task():
    finished = threading.Event()

    def fail(msg):
        def run():
            raise RuntimeError(msg)
        return run

    def slow():
        time.sleep(0.3)
        finished.set()

    with pytest.raises(RuntimeError, match="first"):
        parallel.run_region([fail("first"), slow, fail("second")])
    # the error reaches the caller only once the slow sibling is done
    assert finished.is_set()


def test_failing_first_task_waits_for_its_siblings():
    # the caller runs task 0; its error must still wait for the pool's tasks
    finished = threading.Event()

    def fail():
        raise RuntimeError("caller's task")

    def slow():
        time.sleep(0.3)
        finished.set()

    with pytest.raises(RuntimeError, match="caller's task"):
        parallel.run_region([fail, slow])
    assert finished.is_set()


def test_failing_sibling_surfaces_when_the_first_task_succeeds():
    def fail():
        raise RuntimeError("sibling")

    with pytest.raises(RuntimeError, match="sibling"):
        parallel.run_region([lambda: 1, fail])


def test_caller_is_unmarked_after_its_region():
    # task 0 marks the caller while it runs; once the region closes, the
    # caller's next 2-task region must fan out again
    def names():
        return parallel.run_region([lambda: threading.current_thread().name] * 2)

    assert parallel.run_region([lambda: 1, lambda: 2]) == [1, 2]
    assert names()[0] == threading.current_thread().name
    assert names()[1].startswith("region")


def test_empty_region_returns_an_empty_list():
    assert parallel.run_region([]) == []


def test_two_task_region_adds_one_thread():
    # the caller runs task 0, so a 2-task region needs one pool thread
    src = os.path.dirname(os.path.dirname(os.path.abspath(parallel.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TWO_TASK_REGION], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 1, proc.stdout


def test_region_threads_stay_bounded_by_the_largest_region():
    # a fresh process, so pools left by other tests cannot hide the growth
    src = os.path.dirname(os.path.dirname(os.path.abspath(parallel.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", REGION_SIZES], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 6, proc.stdout


def test_submit_runs_one_task_on_the_pool():
    future = parallel.submit(lambda: threading.current_thread().name)
    assert future.result(timeout=30).startswith("region")


def test_submit_inside_a_region_task_runs_inline():
    # a task on a pool thread must not queue behind itself
    def task():
        here = threading.current_thread().name
        ran = parallel.submit(lambda: threading.current_thread().name)
        failed = parallel.submit(lambda: 1 / 0)
        assert ran.done() and failed.done()
        return here, ran.result(), type(failed.exception())

    for here, ran, error in parallel.run_region([task, task]):
        assert ran == here
        assert error is ZeroDivisionError
