import os
import subprocess
import sys
import textwrap

from parmcmc import parallel

# the interpreter exits while a submitted task still sleeps; concurrent.futures
# joins the pool's threads at exit, so the task must finish and write its file
EXIT_WITH_A_TASK_RUNNING = textwrap.dedent("""
    import sys
    import time
    from parmcmc.parallel import submit

    def task():
        time.sleep(0.5)
        with open(sys.argv[1], "w") as fh:
            fh.write("done")

    submit(task)
""")


def test_exit_waits_for_a_submitted_task(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(parallel.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "side_effect.txt"
    proc = subprocess.run([sys.executable, "-c", EXIT_WITH_A_TASK_RUNNING, str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == "done"
