#!/usr/bin/env python3
"""Builds and runs the DistributedNE.partition benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness and the program from source with sbt (only when a source
changed since the last build), then runs one benchmark JVM with a pinned
environment: master local[<cores>], Spark UI off, an explicit heap, the
C1-only JIT, and Spark's local and temporary directories inside
.bench_build/. The JVM prints one line per metric and, last, one JSON
object; this script exits with the JVM's code. See perfbench/README.md for the metrics.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
OUT = ROOT / ".bench_build" / "perfbench"
CLASSES = HERE / "target" / "scala-2.13" / "classes"
HEAP = "4g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 reflects into java.base; spark-submit passes these opens
# itself, a plain java launch must pass them too.
JDK17_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_home():
    if os.environ.get("SPARK_HOME"):
        return Path(os.environ["SPARK_HOME"])
    submit = shutil.which("spark-submit")
    if not submit:
        fail("set SPARK_HOME or put spark-submit on PATH")
    return Path(submit).resolve().parent.parent


def sources():
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (PROGRAM_SRC, HERE / "src"):
        files += sorted(p for p in d.rglob("*.scala") if p.is_file())
    return files


def build(env):
    """Compiles with sbt unless the sources hash to the last build's stamp."""
    digest = hashlib.sha256()
    for f in sources():
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = OUT / "build.stamp"
    if CLASSES.is_dir() and stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt is not on PATH")
    env = dict(env, COURSIER_MODE=env.get("COURSIER_MODE", "offline"))
    proc = subprocess.run([sbt, "--batch", "-Dsbt.log.noformat=true", "compile"],
                          cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")
    stamp.write_text(digest.hexdigest())


def main():
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # child (sbt or the benchmark JVM) before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    if not (PROGRAM_SRC / "repro" / "core" / "DistributedNE.scala").is_file():
        fail(f"program sources not found under {PROGRAM_SRC}")
    home = spark_home()
    for d in ("spark-local", "tmp"):
        (OUT / d).mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, SPARK_HOME=str(home), SPARK_LOCAL_DIRS=str(OUT / "spark-local"))
    build(env)

    cores = len(os.sched_getaffinity(0))
    # C1 only: with C2 on, call times keep falling for a minute or more of
    # calls (twice as slow at first), longer than a run can warm up; C1 code
    # is slower but stops getting faster after some 30 iterations.
    cmd = ["java", "-XX:TieredStopAtLevel=1", f"-Xms{HEAP}", f"-Xmx{HEAP}"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in JDK17_OPENS]
    cmd += [
        f"-Dspark.master=local[{cores}]",
        "-Dspark.ui.enabled=false",
        "-Dspark.driver.host=127.0.0.1",
        f"-Djava.io.tmpdir={OUT / 'tmp'}",
        f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
        "-cp", os.pathsep.join([str(CLASSES), str(home / "jars" / "*")]),
        "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ]
    if args.trace == "1":
        cmd += ["--spans", str(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark JVM did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
