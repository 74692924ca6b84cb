#!/usr/bin/env python3
"""Build the cfbench binary from this checkout's sources and run it.

Run from the repository root:

    python3 cfbench/run.py --workload train-128 --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/cfbench (default .bench_build/cfbench)
and is incremental. Build output goes to stderr; the binary's standard
output is passed through unchanged, so its last line is the JSON result.
Exits non-zero without a result when the build fails.
"""
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent


def build(build_dir: pathlib.Path) -> pathlib.Path:
    binary = build_dir / "cfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "cfbench",
                    "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


def commit() -> str:
    if shutil.which("git") is None or not (REPO / ".git").exists():
        return "none"
    result = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest() -> str:
    """sha256 over the library sources, so a checkout without git
    history still names what was measured."""
    digest = hashlib.sha256()
    src = REPO / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(REPO)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target / "cfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"cfbench: build failed: {error}", file=sys.stderr)
        return 1
    args = [str(binary), *sys.argv[1:],
            f"--work-dir={build_dir / 'work'}",
            f"--commit={commit()}",
            f"--source-digest={source_digest()}"]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
