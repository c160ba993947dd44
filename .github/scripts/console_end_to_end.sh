#!/usr/bin/env bash
# Runs every kanlmm subcommand once through the installed console script,
# in a fresh temporary directory.  Usage: bash .github/scripts/console_end_to_end.sh
set -euo pipefail
cd "$(mktemp -d)"
kanlmm gen --system linear --h 0.02 --out traj.csv
kanlmm solve-grid --data traj.csv --system linear --out grid.csv
kanlmm train --data traj.csv --grid 4 --hidden 2 --iters 5 --out model.json --report report.json
kanlmm predict --model model.json --x0 0,1 --t1 0.1 --h 0.01 --out pred.csv
kanlmm bounds --d 2 --model model.json --out bounds.json
# the bound is the model's own: G and N come from the --grid 4 --hidden 2 network
python -c "import json; i = json.load(open('bounds.json'))['inputs']; assert (i['G'], i['N']) == (4, 2), i"
# a flag that disagrees with the model: exit 2 and no report
if kanlmm bounds --model model.json --grid 64 --out bounds-64.json; then exit 1; else test $? -eq 2; fi
test ! -e bounds-64.json
kanlmm gen --system opinion --dim 4 --h 0.05 --t1 1 --out opinion.csv
kanlmm solve-grid --data opinion.csv --system opinion --dim 4 --out opinion-grid.csv
kanlmm solve-grid --data opinion.csv --system opinion --dim 4 --scheme ab --steps 3 --out opinion-ab3.csv
kanlmm solve-grid --data opinion.csv --system opinion --dim 4 --scheme bdf --steps 2 --out opinion-bdf2.csv
kanlmm gen --system linear --h 4e-4 --out fine.csv
kanlmm solve-grid --data fine.csv --scheme ab --steps 3 --out fine-ab3.csv
kanlmm solve-grid --data fine.csv --scheme am --steps 1 --out fine-am1.csv
# AM-2 violates the root condition: exit 4 and no table
if kanlmm solve-grid --data fine.csv --scheme am --steps 2 --out fine-am2.csv; then exit 1; else test $? -eq 4; fi
test ! -e fine-am2.csv
kanlmm train --data opinion.csv --system opinion --dim 4 --grid 4 --hidden 3 --iters 5 --out opinion-model.json
# bad input: an infinite span and a NaN alpha exit 2, a NaN field at x0 exits 4 (a hang gives 124)
if kanlmm gen --system linear --t1 inf --out inf-span.csv; then exit 1; else test $? -eq 2; fi
test ! -e inf-span.csv
if timeout 60 kanlmm gen --system linear --x0=1e308,-1e308 --out nan-field.csv; then exit 1; else test $? -eq 4; fi
test ! -e nan-field.csv
if kanlmm gen --system opinion --dim 4 --alpha nan --out nan-alpha.csv; then exit 1; else test $? -eq 2; fi
test ! -e nan-alpha.csv
kanlmm experiment gronwall --out-dir gronwall
python -c "from kanlmm import odeint; print(odeint.load_trajectory('traj.csv').n_steps, odeint.load_trajectory('pred.csv').n_steps)"
