"""Build and run the gopim benchmark from the root of a checkout.

    python3 _perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark and pimsim from source into .bench_build/ (Go build
cache included, so nothing is written outside the checkout), then replaces
itself with the benchmark binary. A failed build exits non-zero without a
result line.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=mod",
    )
    # -o into a directory names each binary after its package: perfbench, pimsim.
    cmd = ["go", "build", "-o", build + os.sep, ".", "gopim/cmd/pimsim"]
    done = subprocess.run(cmd, cwd=here, env=env)
    if done.returncode != 0:
        sys.stderr.write("run.py: build failed (exit %d)\n" % done.returncode)
        sys.exit(1)
    binary = os.path.join(build, "perfbench")
    args = [binary] + sys.argv[1:] + [
        "--pimsim", os.path.join(build, "pimsim"),
        "--work", os.path.join(build, "work"),
    ]
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
