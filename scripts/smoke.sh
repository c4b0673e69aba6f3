#!/usr/bin/env bash
# Entry point smoke run: every subcommand of `python -m covar` on small
# inputs, in a temporary directory, so nothing is written into the
# checkout.  Usage, from any directory: bash scripts/smoke.sh
#
# pipefail makes a covar run that fails after writing its report fail the
# script; the last step checks that a second run writes the same bytes.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

python -m covar grid --p-steps 2 --v-steps 2
# the file name alone selects the matrix format; streamed reports parse as JSON
json_ok='import json, sys; json.load(sys.stdin)'
for m in m.csv m.bin; do
  python -m covar simulate --n 50 --k 4 --out "$m" --labels-out y.txt > /dev/null
  python -m covar decompose --input "$m" | python -c "$json_ok"
  python -m covar select --input "$m" | python -c "$json_ok"
  python -m covar compare --input "$m" --labels y.txt | python -c "$json_ok"
  python -m covar ece --input "$m" --labels y.txt | python -c "$json_ok"
done
# np.loadtxt rejects 0.2_5 and 0_1, which float() and int() accept, so this
# CSV and these labels are read by the line-by-line fallback
printf 'c0,c1\n0.2_5,0.75\n' > fallback.csv
printf 'label\n0_1\n' > fallback.txt
python -m covar decompose --input fallback.csv | python -c "$json_ok"
python -m covar ece --input fallback.csv --labels fallback.txt | python -c "$json_ok"
# grid checks ce at the grid's own largest v: with one v step that is
# --v-min, so a huge --v-max is fine; with two it overflows, and the run must
# exit 2 with nothing on stdout
lines="$(python -m covar grid --v-max 1e308 --p-steps 2 --v-steps 1 | wc -l)"
if [ "$lines" -ne 3 ]; then
  echo "grid --v-max 1e308 --v-steps 1 wrote $lines lines, expected 3" >&2
  exit 1
fi
code=0
python -m covar grid --v-max 1e308 --p-steps 2 --v-steps 2 > overflow.csv || code=$?
if [ "$code" -ne 2 ] || [ -s overflow.csv ]; then
  echo "grid --v-max 1e308 --v-steps 2 exited $code, expected 2 and empty stdout" >&2
  exit 1
fi
# a CSV matrix is opened more than once, so a named pipe must exit 2 with
# nothing on stdout, at once: timeout's 124 or an exit 0 fails the script
mkfifo fifo.csv
code=0
timeout 10 python -m covar decompose --input fifo.csv > fifo.out || code=$?
if [ "$code" -ne 2 ] || [ -s fifo.out ]; then
  echo "decompose --input fifo.csv exited $code, expected 2 and empty stdout" >&2
  exit 1
fi
# --epsilon is checked before the matrix is read, so a bad value exits 2
# with nothing on stdout and a message naming the flag even when the input
# does not exist; no K allows a fixed epsilon of 1 or more
for eps in tiny inf 1; do
  code=0
  python -m covar decompose --input nope.csv --epsilon "$eps" > eps.out 2> eps.err || code=$?
  if [ "$code" -ne 2 ] || [ -s eps.out ] || ! grep -q -- --epsilon eps.err; then
    echo "decompose --input nope.csv --epsilon $eps exited $code, expected 2, empty stdout" \
      "and a message naming --epsilon" >&2
    exit 1
  fi
done
# a row sum that overflows is named by the row-sum check, with no numpy
# warning before it: exit 2, empty stdout, one line on stderr
printf 'c0,c1\n0.5,0.5\n1e308,1e308\n' > ovf.csv
code=0
python -m covar decompose --input ovf.csv > ovf.out 2> ovf.err || code=$?
if [ "$code" -ne 2 ] || [ -s ovf.out ] || [ "$(wc -l < ovf.err)" -ne 1 ]; then
  echo "decompose --input ovf.csv exited $code, expected 2, empty stdout and one stderr line:" >&2
  cat ovf.err >&2
  exit 1
fi
# at K = 300 the residual kernels run over many row blocks of a few rows each
python -m covar simulate --n 3000 --k 300 --out wide.bin > /dev/null
# an exact-zero residual makes the cross entropy infinite; row 150 of a
# K = 300 matrix sits in the third row block, and the run must name it:
# exit 2, empty stdout
python -c 'import numpy as np
r = np.random.default_rng(0).dirichlet(np.ones(300), 200)
r[150] = 0.0
r[150, :2] = 0.9, 0.1
np.savetxt("zero.csv", r, delimiter=",", header=",".join(f"c{i}" for i in range(300)), comments="")'
code=0
python -m covar decompose --input zero.csv > zero.out 2> zero.err || code=$?
if [ "$code" -ne 2 ] || [ -s zero.out ] || ! grep -q "sample 150" zero.err; then
  echo "decompose --input zero.csv exited $code, expected 2, empty stdout and a message" \
    "naming sample 150:" >&2
  cat zero.err >&2
  exit 1
fi
python -m covar decompose --input wide.bin | python -c "$json_ok"
python -m covar decompose --input wide.bin --paper-literal | python -c "$json_ok"
python -m covar select --input wide.bin | python -c "$json_ok"
# 10,000 rows are three chunks, and a second run of the same commands must
# write the same bytes; the fixed-eps and paper-literal runs take the
# decomposition's other branches, and grid's 100 x 100 surface is 10,000 rows.
# The labels file must hold the report's true_label column, one per line
labels_ok='import json, pathlib, sys; read = lambda name: pathlib.Path(name).read_text()
col = [s["true_label"] for s in json.loads(read("simulate.json"))["samples"]]
sys.exit(read("big.txt") != "\n".join(map(str, col)) + "\n" and "big.txt is not the true_label column")'
for d in run1 run2; do
  mkdir "$d"
  (
    cd "$d"
    python -m covar simulate --n 10000 --k 6 --out big.csv --labels-out big.txt > simulate.json
    python -c "$labels_ok"
    python -m covar decompose --input big.csv > decompose.json
    python -m covar decompose --input big.csv --epsilon 0.01 > decompose_fixed.json
    python -m covar decompose --input big.csv --paper-literal > decompose_literal.json
    python -m covar select --input big.csv > select.json
    python -m covar grid --p-steps 100 --v-steps 100 > grid.csv
  )
done
(cd run1 && sha256sum big.csv big.txt simulate.json decompose.json decompose_fixed.json \
  decompose_literal.json select.json grid.csv) > big.sha256
(cd run2 && sha256sum -c ../big.sha256)
# the same matrix as CSV and in the binary container: decompose must write
# the same report for both, but for input.source
(
  cd run1
  python -m covar simulate --n 10000 --k 6 --out big.bin > /dev/null
  python -m covar decompose --input big.bin > decompose_bin.json
  python -c 'import json, pathlib, sys
csv, binary = (pathlib.Path(name).read_text() for name in ("decompose.json", "decompose_bin.json"))
source = json.dumps("big.csv")
if csv.count(source) != 1 or csv.replace(source, json.dumps("big.bin")) != binary:
    sys.exit("decompose wrote different reports for big.csv and big.bin")'
)
