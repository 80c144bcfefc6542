#!/usr/bin/env bash
# Determinism smoke: every parallel sweep binary must emit byte-identical
# CSV at --threads 1 and --threads 4. Where tests/golden/<binary>.csv
# exists, the --threads 1 CSV must also equal it byte for byte, so a change
# that shifts every thread count's output alike still fails. The golden
# files are the CSVs at the smoke_args flags below; regenerate one only for
# a change that is meant to alter that binary's output.
#
# The roster is DERIVED, not maintained: any binary under
# crates/experiments/src/bin/ that instantiates SweepDriver is picked up
# automatically, and the script fails loudly if it has no smoke_args case
# below — adding a sweep binary without wiring it into this gate is a CI
# error by construction.
#
# Env: BIN_DIR (default ./target/release), METRICS_DIR (default
# smoke-metrics) for the --threads 1 run's --metrics-out JSON.
set -eu

B=${BIN_DIR:-./target/release}
OUT=${METRICS_DIR:-smoke-metrics}
mkdir -p "$OUT"

sweep_binaries() {
  grep -l 'SweepDriver::new(' crates/experiments/src/bin/*.rs \
    | xargs -n1 basename | sed 's/\.rs$//' | sort
}

# Small-but-representative flags per binary; keep each under ~10 s.
smoke_args() {
  case "$1" in
    ablation)   echo "--sets 5 --seed 3" ;;
    erfair)     echo "--tasks 8 --cpus 2 --sets 2 --slots 500 --seed 3" ;;
    faults)     echo "--tasks 5 --util 1.25 --sets 2 --horizon 300 --seed 3" ;;
    fig3)       echo "--tasks 10 --sets 4 --points 6 --seed 3" ;;
    fig4)       echo "--tasks 10 --sets 4 --points 6 --seed 3" ;;
    locking)    echo "--cpus 2 --slots 2000 --seed 3" ;;
    quantum)    echo "--tasks 10 --sets 4 --seed 3" ;;
    rmff)       echo "--cpus 4 --tasks 8 --sets 10 --seed 3" ;;
    slack)      echo "--tasks 5 --util 1.25 --sets 2 --horizon 400 --seed 3" ;;
    switches)   echo "--tasks 8 --sets 2 --horizon 100000 --seed 3" ;;
    tournament) echo "--cpus 2 --tasks 6 --sets 3 --horizon 720 --seed 3" ;;
    *)          return 1 ;;
  esac
}

status=0
for name in $(sweep_binaries); do
  if ! args=$(smoke_args "$name"); then
    echo "$0: sweep binary '$name' uses SweepDriver but has no smoke_args" \
         "case — add one to ci/determinism-smoke.sh" >&2
    status=1
    continue
  fi
  # shellcheck disable=SC2086
  "$B/$name" $args --csv --threads 1 --metrics-out "$OUT/$name.json" > "$name.t1.csv"
  # shellcheck disable=SC2086
  "$B/$name" $args --csv --threads 4 > "$name.t4.csv"
  diff "$name.t1.csv" "$name.t4.csv"
  echo "$name: byte-identical across thread counts"
  if [ -f "tests/golden/$name.csv" ]; then
    diff "tests/golden/$name.csv" "$name.t1.csv"
    echo "$name: byte-identical to tests/golden/$name.csv"
  fi
  rm -f "$name.t1.csv" "$name.t4.csv"
done
exit "$status"
