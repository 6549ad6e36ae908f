#!/usr/bin/env bash
# Single-command regeneration of every simulation-derived artifact.
#
# Run this after any change that legitimately alters simulation results
# (kernel behaviour, power model, workload generation). It rebuilds the
# whole invalidation chain in dependency order:
#
#   1. golden.txt        — the bit-identity digest. Regenerating it changes
#                          the code-version salt baked into every store key,
#                          so every previously stored record stops being
#                          addressable.
#   2. results.store     — recreated from scratch (the schema/salt changed,
#                          so none of the old records could be recalled
#                          anyway) by the full experiments sweep.
#   3. RESULTS.md +      — re-rendered byte-identically from the fresh store
#      EXPERIMENTS.md      by the report binary (--populate fills any figure
#                          cell the sweep did not cover).
#   4. report --check    — proves the committed docs now match the store,
#                          i.e. CI's docs gate will pass.
#
# Each `cargo run` rebuilds first, so step 2 compiles against the
# golden.txt written in step 1 (the salt is compiled in via include_str!).
#
# Crash safety: every artifact is written to a scratch file and moved into
# place only once its producing step succeeded, so an interrupted run (crash,
# ^C, disk-full) can never leave a half-written golden.txt or store behind —
# the previous artifacts survive intact.

set -euo pipefail
cd "$(dirname "$0")/.."

# The scratch dir lives next to the artifacts so every `mv` is an atomic
# same-filesystem rename, not a non-atomic cross-device copy.
scratch="$(mktemp -d .regen-scratch.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT

echo "== [1/4] regenerating golden.txt (bit-identity digest + store salt) =="
cargo run --release -p flywheel-bench --bin golden > "$scratch/golden.txt"
mv "$scratch/golden.txt" golden.txt

echo "== [2/4] repopulating results.store (full experiments sweep) =="
cargo run --release -p flywheel-bench --bin experiments -- all --store "$scratch/results.store"
mv "$scratch/results.store" results.store

echo "== [3/4] re-rendering RESULTS.md and EXPERIMENTS.md from the store =="
cp EXPERIMENTS.md "$scratch/EXPERIMENTS.md"
cargo run --release -p flywheel-report --bin report -- --populate \
    --results "$scratch/RESULTS.md" --experiments "$scratch/EXPERIMENTS.md"
mv "$scratch/RESULTS.md" RESULTS.md
mv "$scratch/EXPERIMENTS.md" EXPERIMENTS.md

echo "== [4/4] verifying the docs gate =="
cargo run --release -p flywheel-report --bin report -- --check

echo "regen complete: golden.txt, results.store, RESULTS.md and EXPERIMENTS.md are consistent"
