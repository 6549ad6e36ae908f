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
#   2. results.store +   — one `report --populate` run into a fresh store
#      RESULTS.md +        (the schema/salt changed, so none of the old
#      EXPERIMENTS.md      records could be recalled anyway): it simulates
#                          every cell the published tables read, in the
#                          report's grid order, and renders the documents
#                          from the records it just wrote.
#   3. report --check    — proves the committed docs now match the store,
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

echo "== [1/3] regenerating golden.txt (bit-identity digest + store salt) =="
cargo run --release -p flywheel-bench --bin golden > "$scratch/golden.txt"
mv "$scratch/golden.txt" golden.txt

echo "== [2/3] repopulating results.store and re-rendering RESULTS.md and EXPERIMENTS.md =="
cp EXPERIMENTS.md "$scratch/EXPERIMENTS.md"
cargo run --release -p flywheel-report --bin report -- --populate \
    --store "$scratch/results.store" \
    --results "$scratch/RESULTS.md" --experiments "$scratch/EXPERIMENTS.md"
mv "$scratch/results.store" results.store
mv "$scratch/RESULTS.md" RESULTS.md
mv "$scratch/EXPERIMENTS.md" EXPERIMENTS.md

echo "== [3/3] verifying the docs gate =="
cargo run --release -p flywheel-report --bin report -- --check

echo "regen complete: golden.txt, results.store, RESULTS.md and EXPERIMENTS.md are consistent"
