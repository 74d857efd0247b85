#!/usr/bin/env bash
# Run-to-run byte identity at paper scale: each case runs one CLI command twice on a bundled
# config changed by one sed edit, and both runs must write the same sha256 list.
#   fig6      squint on a 600 mm side (560x560 cells), about 2 s a run
#   fig6_2bit the same sweep quantised to 2 bits, about 3.4 s a run
#   fig5      pattern on 300x300 cells, about 1.2 s a run
# Run from the repository root: bash ci/twice.sh. Files go to $RUNNER_TEMP, or to a new
# temporary directory when that is unset. Each list is printed with the OPENBLAS_NUM_THREADS
# it was made under ("unset": one thread per core), since fig5's pattern.csv depends on it.
set -euo pipefail

tmp="${RUNNER_TEMP:-$(mktemp -d)}"

twice() {  # name for its files, bundled config, command, sed edit, a line the edit must leave
  cfg="$tmp/$1.cfg"
  sed "$4" "src/thz_ris_planner/data/$2.cfg" > "$cfg"
  grep -qx "$5" "$cfg"
  for run in first second; do
    PYTHONPATH=src python -W error -m thz_ris_planner.cli --config "$cfg" --out "$tmp/$1_$run" "$3" > /dev/null
    (cd "$tmp/$1_$run" && sha256sum -- *) > "$tmp/$1_$run.sha256"
  done
  test -s "$tmp/$1_first.sha256"
  diff "$tmp/$1_first.sha256" "$tmp/$1_second.sha256"
  echo "$1: both runs wrote, under OPENBLAS_NUM_THREADS=${OPENBLAS_NUM_THREADS:-unset}"
  cat "$tmp/$1_first.sha256"
}

twice fig6 fig6 squint 's/^side = 80 mm$/side = 600 mm/' 'side = 600 mm'
twice fig6_2bit fig6 squint 's/^side = 80 mm$/side = 600 mm/; $a [quantization]\nbits = 2' 'bits = 2'
twice fig5 fig5 pattern 's/^n_per_side = 100$/n_per_side = 300/' 'n_per_side = 300'
