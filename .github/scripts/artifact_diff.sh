#!/usr/bin/env bash
# Run the eight default subcommands from two source trees at one BLAS
# thread and name every artifact that differs between them (by cmp).
# It only reports: a run that fails or a file that moved is printed,
# and the script exits 0.
#
#   artifact_diff.sh BASE_TREE HEAD_TREE OUT_DIR
set -u
base=$1 head=$2 out=$3
for side in base head; do
  tree=${!side}
  mkdir -p "$out/$side"
  for cmd in compat claim1 conserve kernel radius toy gauge selfcheck; do
    TBDKIT_THREADS=1 PYTHONPATH="$tree/src" python -m tbdkit.cli "$cmd" --out "$out/$side" --quiet \
      || echo "$side: tbdkit $cmd exited $?"
  done
done
moved=0
for name in $( (ls "$out/base"; ls "$out/head") | sort -u); do
  if ! cmp -s "$out/base/$name" "$out/head/$name"; then
    echo "differs: $name"
    moved=$((moved + 1))
  fi
done
echo "$moved artifact(s) differ from the base"
