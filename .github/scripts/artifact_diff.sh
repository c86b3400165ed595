#!/usr/bin/env bash
# Run the eight default subcommands from two source trees at one BLAS
# thread, then kernel once more on a Yukawa config whose sazdjian form has
# B != 0 and a violation ball (its artifacts go to yukawa_kernel/), kernel
# on the same config on a grid whose spacing squares inexactly
# (yukawa_kernel_n24/, so that a change to how grid points are grouped by
# radius shows as a CSV diff) and radius on the same coupling with the
# crater flavor (crater_radius/), so that both flavors' violating radii
# are compared, and compat three times more: composed at n = 16
# (compat_composed/), the analytic default at n = 24 (compat_n24/, a
# mixed-radix grid whose residuals lie above the default 1e-8, so both
# sides exit 1 there) and one analytic field at n = 12 (compat_n12/, a
# grid that the residual's slabs of planes and blocks of columns split
# unevenly; it also exits 1). claim1 and conserve run once more each away
# from their defaults, so that a change to how the currents contract
# spinors is compared on other roots: claim1 at v = 0.2, P0 = 2.9
# (claim1_v02/) and conserve at v = 0.25 with an off-axis second state
# and the retarded Green's function (conserve_offaxis/). Name every
# artifact that differs between them (by cmp).
# For a JSON artifact present on both sides, each dotted path whose value
# differs is named instead (e.g. "conserve.json: report.residual"). Lists
# of one length on both sides are compared item by item ("residuals[3]"),
# others whole. A numeric leaf that moved is printed with its base value,
# its head value and the relative change, so that a move at roundoff
# (about 1e-16) can be told from a real one. It only reports: a run that
# fails or a file that moved is printed, and the script exits 0.
# Each side's default compat run also prints its peak resident set, so
# that a change to the residual's memory shows in the report.
#
#   artifact_diff.sh BASE_TREE HEAD_TREE OUT_DIR
set -u
base=$1 head=$2 out=$3
# Run python -m tbdkit.cli with the arguments after LABEL and print
# "LABEL: peak resident set ... MB" when it exits. The peak is VmHWM of
# /proc/self/status, which exec resets; getrusage's ru_maxrss keeps the
# peak of the process that launched the run whenever that is larger.
peak_rss() {
  python - "$@" <<'EOF'
import runpy
import sys

label = sys.argv[1]
sys.argv = ["tbdkit", *sys.argv[2:]]
try:
    runpy.run_module("tbdkit.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    print(f"{label}: peak resident set {kb / 1024:.1f} MB")
EOF
}
mkdir -p "$out"
yukawa=$out/yukawa_kernel_config.json
cat > "$yukawa" <<'EOF'
{"schema": "tbdkit-config/1", "flavor": "sazdjian",
 "potential": {"kind": "yukawa_tanh", "g1": 3.5449077018110318, "g2": 3.5449077018110318, "mu": 1.0},
 "P2_values": [1.0, 2.25], "grid": {"n": 32, "L": 4.0}, "expect_positive": false}
EOF
yukawa24=$out/yukawa_kernel_n24_config.json
sed 's/"n": 32, "L": 4.0/"n": 24, "L": 5.0/' "$yukawa" > "$yukawa24"
compat_composed=$out/compat_composed_config.json
echo '{"schema": "tbdkit-config/1", "realization": "composed", "grid": {"n": 16, "L": 10.5}}' > "$compat_composed"
compat24=$out/compat_n24_config.json
echo '{"schema": "tbdkit-config/1", "grid": {"n": 24, "L": 10.5}}' > "$compat24"
compat12=$out/compat_n12_config.json
echo '{"schema": "tbdkit-config/1", "grid": {"n": 12, "L": 10.5}, "n_fields": 1}' > "$compat12"
claim1_v02=$out/claim1_v02_config.json
echo '{"schema": "tbdkit-config/1", "v": 0.2, "P0": 2.9}' > "$claim1_v02"
conserve_offaxis=$out/conserve_offaxis_config.json
echo '{"schema": "tbdkit-config/1", "v": 0.25, "p_spatial_b": [0.3, 0.2, 0.1], "green_choice": "retarded"}' > "$conserve_offaxis"
crater=$out/crater_radius_config.json
cat > "$crater" <<'EOF'
{"schema": "tbdkit-config/1", "flavor": "crater",
 "g1": 3.5449077018110318, "g2": 3.5449077018110318, "mu": 1.0, "P0": 1.0,
 "grid": {"n": 24, "L": 5.0}}
EOF
for side in base head; do
  tree=${!side}
  mkdir -p "$out/$side"
  TBDKIT_THREADS=1 PYTHONPATH="$tree/src" peak_rss "$side: tbdkit compat" compat --out "$out/$side" --quiet \
    || echo "$side: tbdkit compat exited $?"
  for cmd in claim1 conserve kernel radius toy gauge selfcheck; do
    TBDKIT_THREADS=1 PYTHONPATH="$tree/src" python -m tbdkit.cli "$cmd" --out "$out/$side" --quiet \
      || echo "$side: tbdkit $cmd exited $?"
  done
  TBDKIT_THREADS=1 PYTHONPATH="$tree/src" python -m tbdkit.cli kernel --config "$yukawa" \
    --out "$out/$side/yukawa_kernel" --quiet || echo "$side: tbdkit kernel (yukawa) exited $?"
  TBDKIT_THREADS=1 PYTHONPATH="$tree/src" python -m tbdkit.cli kernel --config "$yukawa24" \
    --out "$out/$side/yukawa_kernel_n24" --quiet || echo "$side: tbdkit kernel (yukawa, n = 24) exited $?"
  TBDKIT_THREADS=1 PYTHONPATH="$tree/src" python -m tbdkit.cli radius --config "$crater" \
    --out "$out/$side/crater_radius" --quiet || echo "$side: tbdkit radius (crater) exited $?"
  TBDKIT_THREADS=1 PYTHONPATH="$tree/src" python -m tbdkit.cli compat --config "$compat_composed" \
    --out "$out/$side/compat_composed" --quiet || echo "$side: tbdkit compat (composed) exited $?"
  TBDKIT_THREADS=1 PYTHONPATH="$tree/src" python -m tbdkit.cli compat --config "$compat24" \
    --out "$out/$side/compat_n24" --quiet || echo "$side: tbdkit compat (n = 24) exited $?"
  TBDKIT_THREADS=1 PYTHONPATH="$tree/src" python -m tbdkit.cli compat --config "$compat12" \
    --out "$out/$side/compat_n12" --quiet || echo "$side: tbdkit compat (n = 12) exited $?"
  TBDKIT_THREADS=1 PYTHONPATH="$tree/src" python -m tbdkit.cli claim1 --config "$claim1_v02" \
    --out "$out/$side/claim1_v02" --quiet || echo "$side: tbdkit claim1 (v = 0.2) exited $?"
  TBDKIT_THREADS=1 PYTHONPATH="$tree/src" python -m tbdkit.cli conserve --config "$conserve_offaxis" \
    --out "$out/$side/conserve_offaxis" --quiet || echo "$side: tbdkit conserve (off axis) exited $?"
done
json_paths() {
  python - "$@" <<'EOF' || echo "differs: $3"
import json
import math
import sys

base_file, head_file, name = sys.argv[1:]
with open(base_file) as fb, open(head_file) as fh:
    base, head = json.load(fb), json.load(fh)


def number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def walk(a, b, path):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from walk(a.get(key), b.get(key), f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from walk(x, y, f"{path}[{i}]")
    elif a != b:
        path = path or "(root)"
        if number(a) and number(b):
            change = (b - a) / abs(a) if a else math.copysign(math.inf, b)
            yield f"{path}: {a!r} -> {b!r} (relative change {change:+.3g})"
        else:
            yield path


paths = list(walk(base, head, ""))
for path in paths:
    print(f"{name}: {path}")
if not paths:  # the bytes differ, the parsed values do not
    print(f"differs: {name}")
EOF
}
moved=0
for name in $( (cd "$out/base" && find . -type f; cd "$out/head" && find . -type f) | sed 's|^\./||' | sort -u); do
  if ! cmp -s "$out/base/$name" "$out/head/$name"; then
    if [[ $name == *.json && -f $out/base/$name && -f $out/head/$name ]]; then
      json_paths "$out/base/$name" "$out/head/$name" "$name"
    else
      echo "differs: $name"
    fi
    moved=$((moved + 1))
  fi
done
echo "$moved artifact(s) differ from the base"
