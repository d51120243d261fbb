#!/usr/bin/env bash
# CI entry point: twelve tiers, in order -- build; the fast test tier
# (@runtest); static chain verification (@check); the parallel smoke (@jobs);
# the roplint matrix (@lint); the ROPfuscator layer tier (@layers); a 30-case
# layered difftest smoke; observability (@obs); a 200-case differential-
# fuzzing smoke across all four oracles; the campaign smoke (@campaign); the
# serving tier (@serve); and the benchmark gates (@bench), which hold the
# emulator's and the solver's exact counts and speed baselines.  The deep
# tier (dune build @fuzz) is not run here; see EXPERIMENTS.md, "Differential
# testing".
set -euo pipefail
cd "$(dirname "$0")"

echo "== build =="
dune build

echo "== fast test tier (@runtest) =="
dune runtest

echo "== static chain verification (full corpus, Table I/II matrix) =="
dune build @check

echo "== parallel smoke (@jobs: difftest --jobs 3 + ropcheck --jobs 4) =="
dune build @jobs

echo "== static-analysis lint (@lint: roplint matrix, 100% proven gate + fault injection) =="
dune build @lint

echo "== ROPfuscator layers (@layers: full stack ropcheck + opaque/hidden fault legs) =="
dune build @layers

echo "== layered difftest smoke (30 cases, strongest layer stack, verifier on, cross-engine oracle) =="
dune exec bin/difftest.exe -- --cases 30 --seed 42 --config rop-layered-verified --engine both

echo "== observability (@obs: lib/obs suite + schema-validated --trace smoke) =="
dune build @obs

echo "== difftest smoke (200 cases, seed 42, verifier on, cross-engine oracle) =="
dune exec bin/difftest.exe -- --cases 200 --seed 42 --verify --engine both

echo "== campaign smoke (@campaign: tiny grid + resume, >=90% cache hits) =="
dune build @campaign

echo "== serving tier (@serve: daemon selftest, byte-identity + warm >=3x serial + baseline gate) =="
dune build @serve

echo "== benchmark gates (@bench: emulator steps + fast/ref equality + speed baseline; solver exact evals/memo hits + speedup baseline) =="
dune build @bench

echo "== OK =="
