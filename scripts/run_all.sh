#!/usr/bin/env bash
# Builds everything, runs the full test suite, every table/ablation bench,
# and all examples; tees the canonical outputs the repo documents
# (test_output.txt, bench_output.txt) into the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

{
  for b in build/bench/*; do
    if [ -x "$b" ] && [ ! -d "$b" ]; then
      echo "==== $(basename "$b") ===="
      "$b"
      echo
    fi
  done
} 2>&1 | tee bench_output.txt

echo "==== examples ===="
for e in quickstart decoder_walkthrough adder_flow file_flow \
         physical_report; do
  echo "---- $e ----"
  ./build/examples/$e || true
done
