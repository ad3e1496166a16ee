#!/usr/bin/env bash
# One-command verification gate: the default build + full suite, the
# bench-smoke guards (parallel overhead, batched-observe speedup,
# loopback wire batching), the static-analysis gate, and the sanitizer
# suites that the tsan/asan/ubsan ctest labels mark.
#
# Usage: tools/check.sh [fast|full|lint]
#   fast (default) - default build: full ctest + bench-smoke + net labels
#   full           - fast, plus -DHPCAP_TSAN=ON (ctest -L tsan),
#                    -DHPCAP_ASAN=ON (ctest -L asan) and
#                    -DHPCAP_UBSAN=ON (ctest -L ubsan) builds, and
#                    perfbench's --self-check (every workload briefly,
#                    its metric names and its decision oracle)
#   lint           - static analysis only: build + run hpcap_lint
#                    (self-test, then the whole tree, then once more as
#                    --json for machine consumers), clang-tidy over src/
#                    when clang-tidy is installed, and clang's
#                    -Wthread-safety analysis when clang++ is installed
#
# Exits non-zero on the first failing step. Every run ends with a
# summary naming each leg that skipped instead of running (a missing
# clang, a GTEST_SKIP) and why: a skipped gate is not a passing gate, but
# it does not fail the script either. Build trees: build/, build-tsan/,
# build-asan/, build-ubsan/ and (full) .bench_build/ under the repo root.
set -euo pipefail

mode="${1:-fast}"
case "$mode" in
  fast|full|lint) ;;
  *) echo "usage: $0 [fast|full|lint]" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"

step() { printf '\n== %s ==\n' "$*"; }

# Skipped legs, "leg (where): why", in the order first seen.
skips=()
declare -A seen_skip=()
skip() {
  [ -n "${seen_skip[$1]+x}" ] && return
  seen_skip[$1]=1
  skips+=("$1")
}

summary() {
  local rc=$?
  step "summary ($mode)"
  if [ "${#skips[@]}" -eq 0 ]; then
    echo "no legs skipped"
  else
    echo "${#skips[@]} leg(s) SKIPPED — they did not run, so they did not pass:"
    printf '  SKIPPED %s\n' "${skips[@]}"
  fi
  if [ "$rc" -eq 0 ]; then
    echo "all checks that ran passed ($mode)"
  else
    echo "FAILED (exit $rc)"
  fi
}
trap summary EXIT

# The reason test $2 printed when it skipped, from build dir $1's ctest
# log: the line after a GTEST_SKIP's "file:line: Skipped", else the
# test's first output line (a cmake -P leg's "-- ... not installed").
skip_reason() {
  awk -v t="$2" '
    /^[0-9]+\/[0-9]+ Test: / {
      cur = substr($0, index($0, " Test: ") + 7); out = 0; next
    }
    cur != t { next }
    /^Output:/ { out = 1; getline; next }
    !out { next }
    /^<end of output>/ {
      print (first == "" ? "no reason printed" : first); exit
    }
    gskip { print ($0 == "" ? "GTEST_SKIP without a message" : $0); exit }
    /: Skipped$/ { gskip = 1; next }
    first == "" && NF { first = $0; sub(/^-- /, "", first) }
  ' "$1/Testing/Temporary/LastTest.log"
}

# ctest in build dir $1 with the remaining arguments; every test it did
# not run is recorded as a skipped leg with its reason, also when another
# test failed.
run_ctest() {
  local dir="$1"; shift
  local log="$dir/check_ctest.log" name rc=0
  ctest --test-dir "$dir" --output-on-failure "$@" | tee "$log" || rc=$?
  while IFS= read -r name; do
    skip "$name (ctest, $(basename "$dir")/): $(skip_reason "$dir" "$name")"
  done < <(sed -n '/^The following tests did not run:/,/^$/ {
             s/^[[:space:]]*[0-9][0-9]* - \(.*\) ([A-Za-z ]*)$/\1/p
           }' "$log")
  return "$rc"
}

# A cmake -P leg that prints "... not installed" and exits 0 when its
# tool is absent; $1 names the leg for the summary.
run_optional_leg() {
  local leg="$1"; shift
  local log="$root/build/check_$leg.log"
  cmake "$@" | tee "$log"
  local why
  why="$(grep -m1 "not installed" "$log" | sed 's/^-- //')" || return 0
  skip "$leg (check.sh lint): $why"
}

if [ "$mode" = "lint" ]; then
  step "configure + build hpcap_lint"
  cmake -B "$root/build" -S "$root" >/dev/null
  cmake --build "$root/build" -j "$jobs" --target hpcap_lint

  step "hpcap_lint self-test (every rule fires on seeded violations)"
  "$root/build/tools/hpcap_lint" --self-test

  step "hpcap_lint over the tree"
  "$root/build/tools/hpcap_lint" --root "$root"

  step "hpcap_lint --json (machine-readable findings, written to build/)"
  "$root/build/tools/hpcap_lint" --json --root "$root" \
      > "$root/build/lint_findings.json" || {
    cat "$root/build/lint_findings.json"; exit 1; }
  echo "wrote $root/build/lint_findings.json"

  step "clang-tidy over src/ (skips with a notice when not installed)"
  run_optional_leg clang-tidy -DSOURCE_DIR="$root" \
      -DBUILD_DIR="$root/build" -P "$root/tools/clang_tidy_check.cmake"

  step "-Wthread-safety over src/ (skips with a notice when no clang++)"
  run_optional_leg thread-safety -DSOURCE_DIR="$root" \
      -P "$root/tools/thread_safety_check.cmake"
  exit 0
fi

step "default build"
cmake -B "$root/build" -S "$root" >/dev/null
cmake --build "$root/build" -j "$jobs"

step "full test suite"
run_ctest "$root/build"

step "bench-smoke guards (parallel overhead, batched observe, wire batching)"
run_ctest "$root/build" -L bench-smoke

step "net suite (hpcapd wire protocol + loopback)"
run_ctest "$root/build" -L net

step "chaos suite (seeded faults + reconnect/resume, deflake double-run)"
run_ctest "$root/build" -L chaos

step "ctrl suite (closed-loop capacity management, deflake double-run)"
run_ctest "$root/build" -L ctrl

if [ "$mode" = "full" ]; then
  step "tsan build + ctest -L tsan (includes net loopback/swap suites)"
  cmake -B "$root/build-tsan" -S "$root" -DHPCAP_TSAN=ON >/dev/null
  cmake --build "$root/build-tsan" -j "$jobs"
  run_ctest "$root/build-tsan" -L tsan
  run_ctest "$root/build-tsan" -L net
  run_ctest "$root/build-tsan" -L chaos
  run_ctest "$root/build-tsan" -L ctrl

  step "asan build + ctest -L asan (includes net protocol/loopback suites)"
  cmake -B "$root/build-asan" -S "$root" -DHPCAP_ASAN=ON >/dev/null
  cmake --build "$root/build-asan" -j "$jobs"
  run_ctest "$root/build-asan" -L asan
  run_ctest "$root/build-asan" -L net
  run_ctest "$root/build-asan" -L chaos
  run_ctest "$root/build-asan" -L ctrl

  step "ubsan build + ctest -L ubsan (net + ml + counters decode paths)"
  cmake -B "$root/build-ubsan" -S "$root" -DHPCAP_UBSAN=ON >/dev/null
  cmake --build "$root/build-ubsan" -j "$jobs"
  run_ctest "$root/build-ubsan" -L ubsan

  # A wire change that breaks the benchmark's agents or its oracle fails
  # here rather than in the next benchmark run.
  step "perfbench --self-check (builds into .bench_build/ unless CARGO_TARGET_DIR is set)"
  if command -v python3 >/dev/null 2>&1; then
    (cd "$root" && python3 perfbench/run.py --self-check)
  else
    skip "perfbench (check.sh full): python3 not installed"
  fi
fi

