#!/usr/bin/env bash
# CI gate, organized as named stages with per-stage wall-clock timing.
#
#   scripts/ci.sh             full gate: build, tests, lints, formatting,
#                             the bench row printer, the paper's tables at
#                             16³, RunReport smoke-run (the key order is
#                             a tier-1 test), batch smoke-run,
#                             multi-process launch smoke-run
#   scripts/ci.sh --quick     inner-loop gate: unused dev-dependencies +
#                             build + tier-1 tests + full
#                             workspace tests + debug tests of the solver
#                             crates + benchmark-package tests + clippy
#                             (skips benches AND the launch smoke stage)
#   scripts/ci.sh --no-smoke  full gate minus the launch smoke stage
#
# When CLAIRE_SIMD is set in the environment (the CI backend matrix exports
# scalar | auto), the tier-1 stage runs once under that backend; otherwise
# it sweeps both, and the workspace stage runs the claire-simd,
# claire-interp and claire-semilag tests under scalar too. The f32
# inner-solve lane (`Precision::Mixed`) is selected by its config field
# only, so tier-1 tests it by name, and the RunReport smoke-run checks that
# `--precision mixed` lands in the report.
#
# The "bench rows" stage runs `bench_rows` at its smallest size and checks
# its exit status and the shape of its lines, no number: a performance claim
# is made with paired runs through BENCHMARK.json (benchmark/).
#
# Per-stage wall-clock timings are printed and written to
# target/ci_stages.json (also on failure, via the EXIT trap) for CI to upload.
# The gate writes nothing into the tree: its last stage fails when
# `git status --porcelain` is not empty, so run it on a committed tree.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
RUN_SMOKE=1
STAGE_ONLY=""
while [ "$#" -gt 0 ]; do
    case "$1" in
        --quick) QUICK=1; RUN_SMOKE=0 ;;
        --no-smoke) RUN_SMOKE=0 ;;
        # internal: run one stage function in a child shell (the retry
        # wrapper uses this so `timeout` can kill a hung stage cleanly)
        --stage) STAGE_ONLY="$2"; shift ;;
        *) echo "usage: scripts/ci.sh [--quick|--no-smoke]" >&2; exit 2 ;;
    esac
    shift
done

STAGE_NAMES=()
STAGE_SECS=()
stage() {
    local name="$1"; shift
    echo "== $name =="
    local t0=$SECONDS
    "$@"
    local dt=$((SECONDS - t0))
    STAGE_NAMES+=("$name")
    STAGE_SECS+=("$dt")
    echo "-- $name: ${dt}s"
}

# Write the per-stage timings collected so far as target/ci_stages.json. Runs
# on EXIT so a failed gate still leaves a (partial) timing artifact behind.
write_stage_timings() {
    mkdir -p target
    {
        echo '{'
        echo "  \"quick\": $([ "$QUICK" -eq 1 ] && echo true || echo false),"
        echo '  "stages": ['
        local i last=$((${#STAGE_NAMES[@]} - 1))
        for i in "${!STAGE_NAMES[@]}"; do
            local comma=","
            [ "$i" -eq "$last" ] && comma=""
            printf '    {"name": "%s", "secs": %s}%s\n' \
                "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "$comma"
        done
        echo '  ]'
        echo '}'
    } > target/ci_stages.json
}

# Re-run a stage function in a child shell with a hard timeout and bounded
# retries: a hung socket in the launch smoke stage gets SIGTERM from `timeout`
# (tripping the stage's own cleanup trap) instead of stalling the
# 60-minute job, and one transient flake does not fail the gate.
retry_stage() {
    local tries="$1" tmo="$2" fn="$3"
    local attempt rc
    for attempt in $(seq 1 "$tries"); do
        rc=0
        timeout "$tmo" bash "$0" --stage "$fn" || rc=$?
        [ "$rc" -eq 0 ] && return 0
        if [ "$attempt" -lt "$tries" ]; then
            echo "::warning::$fn failed (exit $rc, attempt $attempt/$tries); retrying"
        fi
    done
    echo "$fn failed after $tries attempt(s) (last exit $rc)" >&2
    return "$rc"
}

stage_dev_deps() {
    # a dev-dependency that no source file of its package names is an edge
    # in the build graph and the lock file that no test uses
    local manifest dir pkg dep bad=0 srcs
    for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
        dir="$(dirname "$manifest")"
        pkg="$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)"
        # the root package's sources are its own directories, not the members'
        if [ "$dir" = . ]; then srcs=(src tests examples); else srcs=("$dir"); fi
        for dep in $(sed -n '/^\[dev-dependencies\]/,/^\[/s/^\([A-Za-z0-9_-]*\)[. =].*/\1/p' "$manifest"); do
            grep -rqw --include='*.rs' "${dep//-/_}" "${srcs[@]}" || { echo "$pkg: $dep"; bad=1; }
        done
    done
    [ "$bad" -eq 0 ] || { echo "the dev-dependencies above are named by no source of their package"; exit 1; }
}

stage_build() {
    cargo build --release --workspace
}

stage_tier1_tests() {
    # the SIMD dispatch makes backend choice part of the tested surface.
    # Under the CI matrix one backend is pinned via the environment; a bare
    # run sweeps the scalar reference and runtime feature detection (AVX2
    # where the host supports it).
    if [ -n "${CLAIRE_SIMD:-}" ]; then
        echo "tier-1 backend pinned by environment: CLAIRE_SIMD=$CLAIRE_SIMD"
        cargo test -q --release
    else
        CLAIRE_SIMD=scalar cargo test -q --release
        CLAIRE_SIMD=auto cargo test -q --release
    fi
}

stage_workspace_tests() {
    # the tests run with a TMPDIR of their own that must be empty when they
    # end: a rendezvous or scratch directory a test leaves behind (a socket
    # cluster's, a launch test's stand-in worker) fails the stage by name
    local tmp rc=0 left
    tmp="$(mktemp -d)"
    TMPDIR="$tmp" cargo test -q --release --workspace || rc=$?
    # the crates whose own tests pin the site kernel bit for bit (e.g.
    # `planned_evaluation_equals_one_shot`) run under both backends, as
    # tier-1 does; a pinned CLAIRE_SIMD already chose one
    if [ "$rc" -eq 0 ] && [ -z "${CLAIRE_SIMD:-}" ]; then
        TMPDIR="$tmp" CLAIRE_SIMD=scalar cargo test -q --release \
            -p claire-simd -p claire-interp -p claire-semilag || rc=$?
    fi
    left="$(ls -A "$tmp")"
    rm -rf "$tmp"
    [ "$rc" -eq 0 ] || return "$rc"
    [ -z "$left" ] || { echo "workspace tests left in TMPDIR:"; echo "$left"; return 1; }
}

stage_poison_tests() {
    # every other test stage builds --release, where a write-only pool
    # checkout (`Pool::checkout_written`) hands out its buffer's old
    # contents; under debug_assertions it is all NaN, so a kernel that reads
    # an element before writing it turns these crates' results into NaN;
    # claire-par rides along so its split arithmetic also runs with debug
    # assertions and overflow checks
    cargo test -q -p claire-par -p claire-grid -p claire-fft -p claire-diff \
        -p claire-semilag -p claire-interp -p claire-opt -p claire-core
}

stage_benchmark_package() {
    # benchmark/ is a workspace of its own (BENCHMARK.json's ruler), so the
    # stages above never compile it: build and test it against the current
    # crates here, so a refactor that breaks the API surface it uses
    # (GnProblem::precond32, SpectralT::new, Trajectory::compute, …) fails
    # in CI instead of in the benchmark pipeline. cargo rewrites the
    # package's lock file in place when the crates' dependencies have moved;
    # the lock is the benchmark's to change, so it goes back as committed.
    local lock rc=0
    lock="$(mktemp)"
    cp benchmark/Cargo.lock "$lock"
    cargo test --release --offline --manifest-path benchmark/Cargo.toml || rc=$?
    mv "$lock" benchmark/Cargo.lock
    return "$rc"
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_fmt() {
    cargo fmt --all --check
}

stage_report_schema() {
    local report
    report="$(mktemp -d)/run.json"
    cargo run --release --example quickstart -- 16 --report "$report"
    grep -q '"precision": "f64"' "$report" || {
        echo "RunReport precision should default to f64"; exit 1; }
    grep -q '"name": "solve"' "$report" || { echo "RunReport span tree missing solve root"; exit 1; }
    # a whole solve takes the same path to the same bits on 1 and 3 threads
    # (DESIGN §13): at 16³ the site kernel runs threaded, and 3 workers split
    # 4096 sites into ranges that end inside a block of four
    local path1 path3
    solve_path() { grep -E '"(gn_iters|pcg_iters|obj_evals|rel_mismatch)":' "$report"; }
    CLAIRE_THREADS=1 cargo run --release --example quickstart -- 16 --report "$report"
    path1="$(solve_path)"
    CLAIRE_THREADS=3 cargo run --release --example quickstart -- 16 --report "$report"
    path3="$(solve_path)"
    [ -n "$path1" ] && [ "$path1" = "$path3" ] || {
        echo "quickstart 16 on 1 and 3 threads took different paths:"
        diff <(echo "$path1") <(echo "$path3") || true
        exit 1; }
    # the precision flag must land in the report verbatim
    ./target/release/claire-cli --syn 16 --precision mixed -q -o "$(dirname "$report")/out" \
        --report "$report"
    grep -q '"precision": "mixed"' "$report" || {
        echo "RunReport precision should follow --precision mixed"; exit 1; }
    rm -rf "$(dirname "$report")"
}

stage_bench_rows() {
    # 16³ and 24³ time dispatch, not kernels: only that every row prints
    local rows shape
    rows="$(CLAIRE_BENCH_N=8 ./target/release/bench_rows)"
    echo "$rows"
    shape='^\{"row":"[a-z0-9_]+","unit":"[a-z/]+","backend":"[a-z0-9]+","threads":[0-9]+,'
    shape+='"n":\[16, 24\],"value":\[[0-9]+\.[0-9]+,[0-9]+\.[0-9]+\]\}$'
    if [ -z "$rows" ] || echo "$rows" | grep -vE "$shape"; then
        echo "bench rows: no rows, or the lines above are not rows"; exit 1
    fi
}

stage_clean_tree() {
    # a stage that writes into the tree is caught here, not restored by hand
    local dirty
    dirty="$(git status --porcelain)"
    [ -z "$dirty" ] || { echo "the tree is not as committed:"; echo "$dirty"; exit 1; }
}

stage_paper_tables() {
    # The bins behind EXPERIMENTS.md, at the smallest size they run at. A
    # functional (part-A) line prints what this host measured: the word
    # "modeled" belongs to the part-B rows, which come from claire-perf.
    # table2's part A reads every rank count's phases off the RunReport
    # ledgers; a column wired to the wrong one prints 0.000e0, and every
    # rank count runs the stencil kernel and the (x2/x3-padding) ghost fill.
    local dir run out bins="$PWD/target/release"; dir="$(mktemp -d)"
    for run in table2 table3 table5 table7 fig4 ablation "table7 --proc"; do
        out="$dir/${run// /}.out"
        # the bins append to results/ under the working directory
        # shellcheck disable=SC2086  # $run carries the bin's argument
        (cd "$dir" && CLAIRE_BENCH_N=16 "$bins"/$run) > "$out"
        if sed '/^Table [0-9]*B /,$d' "$out" | grep -n "modeled"; then
            echo "paper tables: $run prints a modeled number in a functional row"; exit 1
        fi
        if [ "$run" = table2 ] && ! sed '/^Table 2B /,$d' "$out" | awk '
            $3 == "|" && $2 ~ /^[0-9]+$/ {
                rows++
                if ($4 + 0 == 0 || $7 + 0 == 0) { print "zero phase: " $0; bad = 1 }
            }
            END { exit bad || rows != 3 }'; then
            echo "paper tables: a table2 part-A row lacks interp_kernel or ghost_comm"; exit 1
        fi
    done
    rm -rf "$dir"
}

stage_batch_smoke() {
    # Three jobs through `claire-cli batch` on two workers: one report per
    # job, every job succeeded (a job that did not turns the exit status to
    # 1 and its summary line to another status), and each report carries
    # its own solve's GN trace. A manifest with a key the config field table
    # does not know, an unknown top-level key or an entry with a bad grid is
    # refused whole before any job runs, and the deleted `--queue-cap` flag
    # and TCP subcommands are usage errors.
    local dir; dir="$(mktemp -d)"
    cat > "$dir/manifest.json" <<'EOF'
{"jobs": [
  {"label": "batch-a", "syn": 8, "max_gn_iter": 2, "max_pcg_iter": 4,
   "continuation": false, "precond": "InvA"},
  {"label": "batch-b", "syn": 8, "max_gn_iter": 2, "max_pcg_iter": 4,
   "continuation": false, "precond": "InvA"},
  {"label": "batch-c", "syn": 8, "max_gn_iter": 2, "max_pcg_iter": 4,
   "continuation": false, "precond": "InvH0", "eps_h0": 1e-2}
]}
EOF
    local code=0
    ./target/release/claire-cli batch "$dir/manifest.json" --workers 2 -o "$dir/out" \
        2> "$dir/batch.err" || code=$?
    [ "$code" -eq 0 ] || { echo "batch smoke: exit $code"; cat "$dir/batch.err"; exit 1; }
    local job report
    for job in batch-a batch-b batch-c; do
        report="$dir/out/$job.json"
        [ -f "$report" ] || { echo "batch smoke: missing report for $job"; exit 1; }
        grep -q "^  $job \[succeeded\]" "$dir/batch.err" || {
            echo "batch smoke: $job did not succeed"; cat "$dir/batch.err"; exit 1; }
        grep -q '"gn_trace": \[$' "$report" || {
            echo "batch smoke: $job has an empty gn_trace"; exit 1; }
    done
    [ "$(find "$dir/out" -name '*.json' | wc -l)" -eq 3 ] || {
        echo "batch smoke: expected exactly one report per job"; ls "$dir/out"; exit 1; }

    # an unknown manifest key is a Config error (exit 3) naming the key,
    # raised before the first job of the manifest runs
    cat > "$dir/typo.json" <<'EOF'
{"jobs": [
  {"label": "fine", "syn": 8, "max_gn_iter": 1, "continuation": false, "precond": "InvA"},
  {"label": "typo", "syn": 8, "presision": "mixed"}
]}
EOF
    code=0
    ./target/release/claire-cli batch "$dir/typo.json" -o "$dir/out-typo" \
        2> "$dir/typo.err" || code=$?
    [ "$code" -eq 3 ] && grep -q "presision" "$dir/typo.err" || {
        echo "batch smoke: unknown manifest key: expected exit 3 naming it, got $code"
        cat "$dir/typo.err"; exit 1; }
    if grep -q "\[succeeded\]" "$dir/typo.err" || [ -e "$dir/out-typo" ]; then
        echo "batch smoke: a job ran from a manifest with an unknown key"
        cat "$dir/typo.err"; exit 1
    fi

    # the top level holds `jobs` and `workers` only: the deleted
    # `queue_capacity` is an unknown key (exit 3) naming it
    cat > "$dir/queue.json" <<'EOF'
{"queue_capacity": 4, "jobs": [
  {"label": "fine", "syn": 8, "max_gn_iter": 1, "continuation": false, "precond": "InvA"}
]}
EOF
    code=0
    ./target/release/claire-cli batch "$dir/queue.json" -o "$dir/out-queue" \
        2> "$dir/queue.err" || code=$?
    [ "$code" -eq 3 ] && grep -q "queue_capacity" "$dir/queue.err" || {
        echo "batch smoke: top-level queue_capacity: expected exit 3 naming it, got $code"
        cat "$dir/queue.err"; exit 1; }

    # the settings that became constants are unknown manifest keys: exit 3
    # naming the key, before the first entry runs
    local key
    for key in beta_init beta_reduction max_inner_iter; do
        printf '{"jobs": [%s, %s]}\n' \
            '{"label": "first", "syn": 8, "max_gn_iter": 1, "continuation": false}' \
            "{\"label\": \"gone\", \"syn\": 8, \"$key\": 0.5}" > "$dir/gone.json"
        code=0
        ./target/release/claire-cli batch "$dir/gone.json" -o "$dir/out-gone" \
            2> "$dir/gone.err" || code=$?
        [ "$code" -eq 3 ] && grep -q "unknown key .$key." "$dir/gone.err" || {
            echo "batch smoke: manifest key $key: expected exit 3 naming it, got $code"
            cat "$dir/gone.err"; exit 1; }
        [ ! -e "$dir/out-gone" ] || { echo "batch smoke: a job ran beside $key"; exit 1; }
    done

    # a second entry whose grid no solve can take is refused (exit 3)
    # before the first entry runs and before the output directory is made
    cat > "$dir/grid.json" <<'EOF'
{"jobs": [
  {"label": "first", "syn": 8, "max_gn_iter": 1, "continuation": false, "precond": "InvA"},
  {"label": "bad", "syn": 1}
]}
EOF
    code=0
    ./target/release/claire-cli batch "$dir/grid.json" -o "$dir/out-grid" \
        2> "$dir/grid.err" || code=$?
    [ "$code" -eq 3 ] || {
        echo "batch smoke: a syn 1 entry: expected exit 3, got $code"; cat "$dir/grid.err"; exit 1; }
    if grep -q "\[succeeded\]" "$dir/grid.err" || [ -e "$dir/out-grid" ]; then
        echo "batch smoke: a job ran from a manifest with a bad grid"
        cat "$dir/grid.err"; exit 1
    fi

    # the admission queue's capacity flag went with the queue, the TCP
    # server and client subcommands were deleted, and the settings that
    # became constants lost their flags: these command lines are usage
    # errors now
    local argv usage
    for argv in "batch $dir/manifest.json --queue-cap 4 -o $dir/out-cap -q" \
        "serve --listen 127.0.0.1:0 -q" "submit --addr 127.0.0.1:1 $dir/manifest.json -q" \
        "--syn 8 --beta-init 0.5 -q -o $dir/out-init" \
        "--syn 8 --beta-reduction 0.5 -q -o $dir/out-reduction" \
        "launch --ranks 1 --syn 8 --max-inner 5 -q"; do
        usage=0
        # shellcheck disable=SC2086  # $argv is the word-split command line
        timeout 10 ./target/release/claire-cli $argv > /dev/null 2>&1 || usage=$?
        [ "$usage" -eq 2 ] || {
            echo "batch smoke: claire-cli $argv should be a usage error, got exit $usage"; exit 1; }
    done
    rm -rf "$dir"
    echo "batch smoke: three jobs on two workers, each with its own GN trace;" \
        "typo, top-level key, constant settings, bad grid, --queue-cap and TCP refused"
}

stage_proc_smoke() {
    # Boot a real 4-process rank cluster with `claire-cli launch` (each rank
    # its own OS process, Unix-domain-socket transport), validate rank 0's
    # RunReport, require its solve trajectory to match the same problem run
    # threads-as-ranks in one process and its mismatch bits a single run's,
    # and check that a rank dying mid-solve surfaces as a typed exit — not a
    # hang.
    local dir; dir="$(mktemp -d)"
    ./target/release/claire-cli launch --ranks 4 --syn 16 --report "$dir/proc.json" -q
    grep -q '"transport": "socket"' "$dir/proc.json" || {
        echo "proc smoke: launch report transport is not socket"; exit 1; }
    grep -q '"nranks": 4' "$dir/proc.json" || {
        echo "proc smoke: launch report nranks != 4"; exit 1; }

    # same problem, threads-as-ranks in one process: trajectories must agree
    ./target/release/claire-cli launch --ranks 4 --syn 16 --in-process \
        --report "$dir/thr.json" -q
    local pm tm
    pm="$(grep '"rel_mismatch"' "$dir/proc.json")"
    tm="$(grep '"rel_mismatch"' "$dir/thr.json")"
    [ -n "$pm" ] && [ "$pm" = "$tm" ] || {
        echo "proc smoke: mismatch diverges between transports: '$pm' vs '$tm'"; exit 1; }

    # launch solves with the single run's defaults, and a global sum has one
    # order for every rank count: 4 rank processes give a single process's bits
    ./target/release/claire-cli --syn 16 --report "$dir/single.json" -o "$dir/single" -q
    local sm; sm="$(grep '"rel_mismatch"' "$dir/single.json")"
    [ -n "$sm" ] && [ "$pm" = "$sm" ] || {
        echo "proc smoke: 4-process mismatch differs from one process: '$pm' vs '$sm'"; exit 1; }
    # the trilinear stencil on 3 ranks of 5-6 planes, where many departure
    # points leave their rank's slab: the single run's bits again
    ./target/release/claire-cli launch --in-process --ranks 3 --syn 16 --order linear \
        --report "$dir/lin3.json" -q
    ./target/release/claire-cli --syn 16 --order linear --report "$dir/lin1.json" -q
    local l3 l1
    l3="$(grep '"rel_mismatch"' "$dir/lin3.json")"
    l1="$(grep '"rel_mismatch"' "$dir/lin1.json")"
    [ -n "$l1" ] && [ "$l3" = "$l1" ] || {
        echo "proc smoke: 3-rank linear mismatch differs from one process: '$l3' vs '$l1'"
        exit 1; }
    # the report's pool peak is the bytes held at one moment: above zero and
    # at most the sum of the category peaks, which fall at different moments
    local peak sum=0 b
    peak="$(grep -o '"pool_peak_bytes": [0-9]*' "$dir/single.json" | grep -o '[0-9]*$')"
    for b in $(grep -o '"peak_bytes": [0-9]*' "$dir/single.json" | grep -o '[0-9]*$'); do
        sum=$((sum + b))
    done
    [ -n "$peak" ] && [ "$peak" -gt 0 ] && [ "$peak" -le "$sum" ] || {
        echo "proc smoke: memory.pool_peak_bytes '$peak' not in (0, $sum]"; exit 1; }

    # the launcher hands the workers its whole config: a field `launch` has
    # no hand-written arm for must reach rank 0
    ./target/release/claire-cli launch --ranks 2 --syn 16 --precision mixed \
        --report "$dir/mixed.json" -q
    grep -q '"precision": "mixed"' "$dir/mixed.json" || {
        echo "proc smoke: --precision mixed did not reach the rank-0 report"; exit 1; }
    # ... with the seconds rank 0 spent blocked in each traffic category
    grep -q '"blocked_secs"' "$dir/mixed.json" || {
        echo "proc smoke: no measured blocked_secs in the rank-0 report"; exit 1; }
    # the modeled-topology flag went with the clock that read it (spelled in
    # halves: a grep for the flag should find no user of it)
    local gone="--gpus-per" usage=0
    ./target/release/claire-cli launch --ranks 2 --syn 16 "$gone-node" 4 -q \
        2> /dev/null || usage=$?
    [ "$usage" -eq 2 ] || {
        echo "proc smoke: launch $gone-node should be a usage error, got exit $usage"; exit 1; }

    # rank-failure path: worker 1 exits mid-solve; the launcher must reap
    # the survivors and fail typed (exit 8) within the timeout
    local code=0
    CLAIRE_IPC_TEST_DIE_RANK=1 timeout 120 ./target/release/claire-cli launch \
        --ranks 3 --syn 16 -q 2> "$dir/fail.err" || code=$?
    [ "$code" -eq 8 ] || {
        echo "proc smoke: expected exit 8 for a dead rank, got $code"
        cat "$dir/fail.err"; exit 1; }
    grep -q "rank 1" "$dir/fail.err" || {
        echo "proc smoke: failure not attributed to rank 1"; cat "$dir/fail.err"; exit 1; }

    rm -rf "$dir"
    echo "proc smoke: 4-process launch, transport-equivalent report, typed rank failure OK"
}

# --stage <fn>: child-shell entry for retry_stage — run the one stage
# function and exit, with no timing trap (the parent owns the timings)
if [ -n "$STAGE_ONLY" ]; then
    case "$STAGE_ONLY" in
        stage_*) "$STAGE_ONLY"; exit 0 ;;
        *) echo "unknown stage: $STAGE_ONLY" >&2; exit 2 ;;
    esac
fi

trap write_stage_timings EXIT

stage "unused dev-dependencies" stage_dev_deps
stage build stage_build
stage "tier-1 tests (root package)" stage_tier1_tests
# every crate's own tests, in --quick too: a red crate-level test must not
# survive behind a green tier-1 suite
stage "full workspace tests" stage_workspace_tests
stage "debug tests (NaN-poisoned checkouts)" stage_poison_tests
stage "benchmark package tests" stage_benchmark_package
stage "clippy (deny warnings)" stage_clippy
if [ "$QUICK" -eq 0 ]; then
    stage "rustfmt check" stage_fmt
    stage "bench rows" stage_bench_rows
    stage "paper tables" stage_paper_tables
    stage "RunReport schema smoke-run" stage_report_schema
    stage "batch smoke-run" stage_batch_smoke
fi
# both --quick and --no-smoke skip the socket-dependent launch smoke stage;
# otherwise it runs in a child shell under a 10-minute timeout with one
# retry, so a wedged socket cannot stall the workflow job
if [ "$RUN_SMOKE" -eq 1 ]; then
    stage "multi-process launch smoke-run" retry_stage 2 600 stage_proc_smoke
fi
stage "clean tree" stage_clean_tree

echo
echo "stage timings:"
for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-32s %4ss\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
done
echo "stage timings: target/ci_stages.json"
if [ "$QUICK" -eq 1 ]; then
    echo "CI gate passed (--quick: build + tier-1 + workspace + debug + benchmark-package tests + clippy)."
else
    echo "CI gate passed."
fi
