#!/usr/bin/env bash
# Prints every end-to-end metric of every workload, one row each, plus the
# error_rate row and the provenance line. Run from the repository root:
#   specbench/all.sh [SEED] [SECONDS]
set -euo pipefail
seed="${1:-1}"
secs="${2:-25}"
for w in mega_oneshot serve_edit kernels_sim; do
  cargo run --release --offline --quiet --manifest-path specbench/Cargo.toml -- \
    --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 | grep -v '^{'
done
