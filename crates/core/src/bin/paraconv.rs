//! The `paraconv` command-line interface.
//!
//! ```console
//! $ paraconv list
//! $ paraconv show cat
//! $ paraconv dot flower > flower.dot
//! $ paraconv run protein --pes 64 --iters 100
//! $ paraconv compare speech-1 --pes 32
//! $ paraconv gantt cat --pes 4 --window 40
//! $ paraconv audit cat --pes 16 --iters 100
//! $ paraconv verify cat --pes 16
//! $ paraconv verify --all --zoo
//! $ paraconv table1 --quick --trace t.json --metrics m.jsonl
//! $ paraconv stats cat --pes 16
//! $ paraconv stats cat --prom
//! $ paraconv stats cat --watch 5
//! $ paraconv chaos cat --seed 42 --fault-rate 100 --kill-pe 1@40 --json
//! $ paraconv postmortem cat.postmortem
//! $ paraconv bench report
//! $ paraconv bench diff BENCH_3.json BENCH_4.json
//! $ paraconv check trace t.json
//! $ paraconv check prom metrics.prom
//! $ paraconv plan export cat --out cat.plan
//! $ paraconv plan export --all --zoo --dir plans --registry .registry
//! $ paraconv plan import cat.plan --run
//! $ paraconv plan diff cat.plan other.plan
//! $ paraconv analyze --list
//! $ paraconv analyze --schedules 50000 --preemptions 2
//! $ paraconv analyze registry-put-shared-tmp
//! ```
//!
//! Exit codes: `0` success, `1` runtime failure (a run that errored,
//! a rejected artifact, plans that differ, a perf regression, a
//! malformed artifact under `check`), `2` usage error (unknown
//! subcommand, malformed or unknown flags — usage is printed to
//! stderr).

use std::process::ExitCode;

use paraconv::fault::FaultSpec;
use paraconv::graph::TaskGraph;
use paraconv::pim::PimConfig;
use paraconv::registry::{self as plan_registry, PlanBundle, PlanPolicy, Registry};
use paraconv::sched::{AllocationPolicy, ParaConvScheduler};
use paraconv::synth::benchmarks;
use paraconv::{experiments, obs, ParaConv};

/// A CLI failure, split by exit code: usage errors (exit 2) echo the
/// usage text, runtime errors (exit 1) do not.
enum CliError {
    /// The invocation itself is malformed.
    Usage(String),
    /// The invocation is well-formed but the work failed.
    Runtime(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  paraconv list                         list the benchmark suite
  paraconv show <benchmark>             structural summary of a benchmark
  paraconv dot <benchmark>              Graphviz DOT on stdout
  paraconv run <benchmark> [opts]       schedule + simulate with Para-CONV
  paraconv compare <benchmark> [opts]   Para-CONV vs the SPARTA baseline
  paraconv gantt <benchmark> [opts]     ASCII Gantt of the Para-CONV plan
  paraconv audit <benchmark> [opts]     audit both schedulers' plans
  paraconv verify [<benchmark>] [opts]  statically prove the Para-CONV plan
  paraconv table1 [opts]                Table 1 (SPARTA vs Para-CONV sweep)
  paraconv stats <benchmark> [opts]     run compare and print its metrics
  paraconv chaos <benchmark> [opts]     deterministic fault campaign + recovery
  paraconv chaos --serve [opts]         in-process serving chaos campaign
  paraconv postmortem <dump>            render a flight-recorder dump
  paraconv serve [opts]                 long-running multi-tenant planner daemon
  paraconv client --addr <a> [opts]     JSONL stdin/stdout client for a daemon
  paraconv bench report [opts]          BENCH_*.json trajectory + regression gate
  paraconv bench diff <a> <b>           compare two bench reports
  paraconv check trace|metrics|prom <file>
                                        validate an exported artifact's format
  paraconv plan export <benchmark>|--all [--zoo] [opts]
                                        export verified plan artifact(s)
  paraconv plan import <file> [opts]    decode + verify-gate an artifact
  paraconv plan diff <a> <b>            compare two plan artifacts
  paraconv analyze [<harness>...] [opts]
                                        model-check the concurrent serving path
  paraconv analyze --list               list the model-check harnesses

options:
  --pes <n>       processing engines (default 16; table1 sweeps 16/32/64)
  --iters <n>     iterations (default 50)
  --window <n>    gantt window length in time units (default 60)
  --quick         table1 only: small benchmark prefix, 10 iterations
  --all           verify only: the whole benchmark suite (the default)
  --zoo           verify only: also verify the real-CNN model zoo
  --trace <path>  write a Chrome trace-event JSON (Perfetto-loadable)
  --metrics <path> write the metrics snapshot as JSONL

stats options:
  --prom          print the Prometheus text exposition instead
  --watch <n>     re-run and re-print the metrics n times (live refresh)

chaos options:
  --seed <n>          campaign seed (default 0; same seed => same report)
  --fault-rate <bp>   vault/congestion/corruption rate in basis points (0-10000)
  --kill-pe <id>@<c>  fail-stop PE <id> at cycle <c> (repeatable)
  --json              machine-readable result on stdout
  --postmortem <path> where a failed campaign dumps the flight recorder
                      (default <benchmark>.postmortem)

bench options:
  --dir <path>        directory holding BENCH_<n>.json (default .)
  --tolerance-bp <n>  regression tolerance in basis points (default 2000)

plan options:
  --out <path>      export: artifact path (default <benchmark>.plan);
                    import: re-emit the canonical artifact bytes here
  --dir <path>      export --all: output directory (default plans/)
  --registry <dir>  content-addressed store to consult and populate
  --key <hex>       import: fetch by registry key instead of a file
  --run             import: simulate the plan after the verifier gate

analyze options:
  --schedules <n>   cap on explored interleavings (default 100000)
  --preemptions <n> preemption budget per schedule (default 2)
  --json            machine-readable results on stdout

serve options (also chaos --serve):
  --addr <host:port>    bind address (default 127.0.0.1:0, ephemeral)
  --addr-file <path>    write the bound address here once listening
  --jobs <n>            worker pool width (default PARACONV_JOBS or cores)
  --queue <n>           admission queue capacity (default 64)
  --registry <dir>      persistent plan store (recovered on startup)
  --quota <n>           per-tenant in-flight quota (default 16)
  --breaker-threshold <n>  consecutive poisons tripping the breaker (default 3)
  --breaker-cooldown <n>   rejections before a half-open probe (default 8)
  --seed <n>            fault campaign seed (default 0)
  --worker-kill <bp>    worker kill rate, basis points (default 0)
  --slow <bp>           slow-request injection rate (default 0)
  --disk-fail <bp>      cache-write failure rate (default 0)

chaos --serve options:
  --requests <n>        total requests across all clients (default 512)
  --clients <n>         concurrent client threads (default 8)
  --json                machine-readable campaign report on stdout
  --postmortem <path>   dump the campaign (flight recorder + metrics)
                        as a postmortem artifact for `paraconv postmortem`";

/// Parsed command options shared by the scheduling subcommands.
struct Opts {
    /// `--pes`, kept optional so `table1` can distinguish "sweep the
    /// paper's three sizes" from "pin one size".
    pes: Option<usize>,
    iters: u64,
    window: u64,
    quick: bool,
    trace: Option<String>,
    metrics: Option<String>,
}

impl Opts {
    fn pes(&self) -> usize {
        self.pes.unwrap_or(16)
    }

    /// True when any observability export was requested.
    fn observing(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let command = args
        .first()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    match command.as_str() {
        "list" => {
            println!("{:<16} {:>8} {:>7}", "benchmark", "vertices", "edges");
            for b in benchmarks::all() {
                println!("{:<16} {:>8} {:>7}", b.name(), b.vertices(), b.edges());
            }
            Ok(())
        }
        "show" => {
            let graph = load(args.get(1))?;
            let s = graph.summary();
            println!("name:            {}", s.name);
            println!(
                "vertices:        {} ({} conv-like, {} pool)",
                s.vertices, s.conv_ops, s.pool_ops
            );
            println!("edges (IPRs):    {}", s.edges);
            println!("depth:           {}", s.depth);
            println!("peak width:      {}", s.max_width);
            println!("serial work:     {}", s.total_exec_time);
            println!("critical path:   {}", s.critical_path);
            Ok(())
        }
        "dot" => {
            let graph = load(args.get(1))?;
            print!("{}", graph.to_dot());
            Ok(())
        }
        "run" => {
            let graph = load(args.get(1))?;
            let opts = options(args)?;
            start_observing(&opts);
            let cfg = config(opts.pes())?;
            let runner = ParaConv::new(cfg.clone());
            let result = runner.run(&graph, opts.iters).map_err(|e| e.to_string())?;
            println!(
                "kernel p = {} ({} iters/kernel), R_max = {}, prologue = {}",
                result.outcome.period(),
                result.outcome.unroll(),
                result.outcome.rmax(),
                result.outcome.prologue_time()
            );
            println!(
                "{} of {} IPRs cached; case histogram (1..6): {:?}",
                result.outcome.cached_iprs(),
                graph.edge_count(),
                result.outcome.analysis.case_histogram()
            );
            println!("{}", result.report);
            export(
                &opts,
                Some(paraconv::pim::plan_chrome_trace(
                    &graph,
                    &result.outcome.plan,
                    &cfg,
                )),
            )
        }
        "compare" => {
            let graph = load(args.get(1))?;
            let opts = options(args)?;
            start_observing(&opts);
            let runner = ParaConv::new(config(opts.pes())?);
            let cmp = runner
                .compare(&graph, opts.iters)
                .map_err(|e| e.to_string())?;
            println!(
                "Para-CONV: {}   SPARTA: {}   IMP: {:.2}%   speedup: {:.2}x",
                cmp.paraconv.report.total_time,
                cmp.sparta.report.total_time,
                cmp.improvement_percent(),
                cmp.speedup()
            );
            export(&opts, None)
        }
        "gantt" => {
            let graph = load(args.get(1))?;
            let opts = options(args)?;
            start_observing(&opts);
            let cfg = config(opts.pes())?;
            let result = ParaConv::new(cfg.clone())
                .run(&graph, opts.iters)
                .map_err(|e| e.to_string())?;
            print!(
                "{}",
                paraconv::pim::gantt(&graph, &result.outcome.plan, &cfg, 0, opts.window)
            );
            export(
                &opts,
                Some(paraconv::pim::plan_chrome_trace(
                    &graph,
                    &result.outcome.plan,
                    &cfg,
                )),
            )
        }
        "audit" => {
            let graph = load(args.get(1))?;
            let opts = options(args)?;
            start_observing(&opts);
            let cfg = config(opts.pes())?;
            let runner = ParaConv::new(cfg.clone());
            let result = runner.run(&graph, opts.iters).map_err(|e| e.to_string())?;
            let para = paraconv::pim::audit(&graph, &result.outcome.plan, &cfg, &result.report)
                .map_err(|e| format!("Para-CONV plan failed audit: {e}"))?;
            println!("Para-CONV plan: PASS");
            println!("{para}");
            let baseline = runner
                .run_baseline(&graph, opts.iters)
                .map_err(|e| e.to_string())?;
            let sparta =
                paraconv::pim::audit(&graph, &baseline.outcome.plan, &cfg, &baseline.report)
                    .map_err(|e| format!("SPARTA plan failed audit: {e}"))?;
            println!();
            println!("SPARTA plan: PASS");
            println!("{sparta}");
            export(&opts, None)
        }
        "verify" => {
            // `verify` takes an optional benchmark name; `--all` (the
            // default with no name) covers the suite and `--zoo` adds
            // the partitioned real CNNs.
            let named = args.get(1).filter(|a| !a.starts_with("--"));
            let mut shifted = vec![args[0].clone(), named.cloned().unwrap_or_default()];
            shifted.extend(
                args.iter()
                    .skip(if named.is_some() { 2 } else { 1 })
                    .filter(|a| a.as_str() != "--all" && a.as_str() != "--zoo")
                    .cloned(),
            );
            let opts = options(&shifted)?;
            let cfg = config(opts.pes())?;

            let mut targets: Vec<(String, TaskGraph)> = Vec::new();
            if let Some(name) = named {
                targets.push((name.clone(), load(Some(name))?));
            } else {
                for b in benchmarks::all() {
                    targets.push((b.name().to_owned(), b.graph().map_err(|e| e.to_string())?));
                }
            }
            if args.iter().any(|a| a == "--zoo") {
                let zoo = paraconv::cnn::zoo::all().map_err(|e| e.to_string())?;
                for (class, network) in &zoo {
                    let graph = paraconv::cnn::partition(
                        network,
                        paraconv::cnn::PartitionConfig::default(),
                    )
                    .map_err(|e| e.to_string())?;
                    targets.push((format!("{class}/{}", network.name()), graph));
                }
            }

            let runner = ParaConv::new(cfg.clone());
            for (name, graph) in &targets {
                let result = runner
                    .run(graph, opts.iters)
                    .map_err(|e| format!("{name}: {e}"))?;
                let report =
                    paraconv::verify::verify_run(graph, &result.outcome, &cfg, &result.report)
                        .map_err(|e| format!("{name}: verification FAILED: {e}"))?;
                println!("{name}: PROVED");
                println!("{report}");
            }
            println!(
                "{} plan(s) statically verified on {} PEs, {} iterations",
                targets.len(),
                opts.pes(),
                opts.iters
            );
            Ok(())
        }
        "table1" => {
            // `table1` takes no benchmark argument, so flags start at
            // index 1 — prepend a placeholder to reuse the parser.
            let shifted: Vec<String> = std::iter::once(String::new())
                .chain(args.iter().cloned())
                .collect();
            let opts = options(&shifted)?;
            start_observing(&opts);
            let mut cfg = if opts.quick {
                experiments::ExperimentConfig::quick()
            } else {
                experiments::ExperimentConfig::default()
            };
            if let Some(pes) = opts.pes {
                cfg.pe_counts = vec![pes];
            }
            if args.iter().any(|a| a == "--iters") {
                cfg.iterations = opts.iters;
            }
            let suite = if opts.quick {
                experiments::quick_suite()
            } else {
                experiments::full_suite()
            };
            let rows = experiments::table1::run(&cfg, &suite).map_err(|e| e.to_string())?;
            print!("{}", experiments::table1::render(&rows));
            export(&opts, None)
        }
        "stats" => {
            let graph = load(args.get(1))?;
            // `--prom` / `--watch <n>` are stats-only flags; peel them
            // off before the shared parser sees them.
            let mut shared: Vec<String> = Vec::new();
            let mut prom = false;
            let mut watch: u64 = 1;
            let mut i = 0;
            while i < args.len() {
                match args[i].as_str() {
                    "--prom" => {
                        prom = true;
                        i += 1;
                    }
                    "--watch" => {
                        let value = args
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage("--watch needs a value".into()))?;
                        watch = value
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --watch `{value}`")))?;
                        if watch == 0 {
                            return Err(CliError::Usage(
                                "--watch needs at least one refresh".into(),
                            ));
                        }
                        i += 2;
                    }
                    other => {
                        shared.push(other.to_owned());
                        i += 1;
                    }
                }
            }
            let opts = options(&shared)?;
            // `stats` exists to show metrics, so recording is always on.
            obs::reset();
            obs::enable();
            let runner = ParaConv::new(config(opts.pes())?);
            for round in 0..watch {
                let cmp = runner
                    .compare(&graph, opts.iters)
                    .map_err(|e| e.to_string())?;
                if round > 0 {
                    // Clear + home, like `watch(1)`; metrics keep
                    // accumulating across refreshes so rates settle.
                    print!("\x1b[2J\x1b[H");
                }
                println!(
                    "Para-CONV: {}   SPARTA: {}   speedup: {:.2}x",
                    cmp.paraconv.report.total_time,
                    cmp.sparta.report.total_time,
                    cmp.speedup()
                );
                println!();
                let snapshot = obs::snapshot();
                if prom {
                    print!("{}", snapshot.to_prometheus());
                } else {
                    print!("{snapshot}");
                }
                if round + 1 < watch {
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
            }
            obs::disable();
            export(&opts, None)
        }
        "chaos" if args.iter().any(|a| a == "--serve") => serve_chaos_command(args),
        "chaos" => {
            let graph = load(args.get(1))?;
            let name = args.get(1).cloned().unwrap_or_default();
            let chaos_opts = chaos_options(args)?;
            let spec = chaos_opts.spec()?;
            let cfg = config(chaos_opts.pes)?;
            obs::reset();
            obs::enable();
            // The flight recorder rides along on every campaign: when
            // the run dies it holds the last structured events and is
            // dumped as a content-hashed postmortem artifact.
            obs::flight_enable(obs::DEFAULT_FLIGHT_CAPACITY);
            let outcome = ParaConv::new(cfg)
                .with_audit(true)
                .with_verify(true)
                .run_chaos(&graph, chaos_opts.iters, &spec);
            let result = match outcome {
                Ok(result) => result,
                Err(e) => {
                    let reason = e.to_string();
                    let path = dump_postmortem(&name, &reason, &chaos_opts)?;
                    obs::flight_disable();
                    obs::disable();
                    return Err(CliError::Runtime(format!(
                        "{reason} (postmortem dumped to `{path}`)"
                    )));
                }
            };
            obs::flight_disable();
            obs::disable();
            let replan_count = result.replans;
            if chaos_opts.json {
                let f = &result.faults;
                let failed: Vec<String> =
                    result.failed_pes.iter().map(ToString::to_string).collect();
                println!("{{");
                println!("  \"benchmark\": \"{name}\",");
                println!("  \"seed\": {},", chaos_opts.seed);
                println!("  \"fault_rate_bp\": {},", chaos_opts.rate_bp);
                println!("  \"pes\": {},", chaos_opts.pes);
                println!("  \"active_pes\": {},", result.config.active_pes());
                println!("  \"iterations\": {},", chaos_opts.iters);
                println!("  \"replans\": {replan_count},");
                println!("  \"failed_pes\": [{}],", failed.join(", "));
                println!("  \"injected\": {},", f.injected);
                println!("  \"vault_faults\": {},", f.vault_faults);
                println!("  \"retries\": {},", f.retries);
                println!("  \"corruptions\": {},", f.corruptions);
                println!("  \"congestion_events\": {},", f.congestion_events);
                println!("  \"injected_delay\": {},", f.injected_delay);
                println!("  \"planned_makespan\": {},", f.planned_makespan);
                println!("  \"achieved_makespan\": {},", f.achieved_makespan);
                println!("  \"total_time\": {}", result.report.total_time);
                println!("}}");
            } else {
                println!(
                    "campaign: seed {}, rate {} bp, {} kill(s)",
                    chaos_opts.seed,
                    chaos_opts.rate_bp,
                    spec.pe_kills().len()
                );
                println!(
                    "recovery: {} replan(s), failed PEs {:?}, {} of {} PEs surviving",
                    replan_count,
                    result.failed_pes,
                    result.config.active_pes(),
                    result.config.num_pes()
                );
                println!(
                    "faults:   {} injected ({} vault, {} congestion, {} corruption), {} retries",
                    result.faults.injected,
                    result.faults.vault_faults,
                    result.faults.congestion_events,
                    result.faults.corruptions,
                    result.faults.retries
                );
                println!(
                    "timeline: planned {} -> achieved {} (+{} injected delay)",
                    result.faults.planned_makespan,
                    result.faults.achieved_makespan,
                    result.faults.injected_delay
                );
                println!("{}", result.report);
            }
            Ok(())
        }
        "postmortem" => postmortem_command(args),
        "serve" => serve_command(args),
        "client" => client_command(args),
        "bench" => bench_command(args),
        "check" => check_command(args),
        "plan" => plan_command(args),
        "analyze" => analyze_command(args),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// `paraconv analyze`: run the paraconv-analyze model-check harnesses
/// over the concurrent serving path. Exit 0 when every selected
/// harness explores its bounded state space cleanly, exit 1 when any
/// fails (the failing interleaving and its replayable schedule seed
/// are printed), exit 2 on a malformed invocation.
fn analyze_command(args: &[String]) -> Result<(), CliError> {
    use paraconv::analyze::{find_harness, harnesses, ExploreOpts, Harness};

    let mut opts = ExploreOpts::default();
    let mut list = false;
    let mut json = false;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--json" => json = true,
            "--schedules" => {
                opts.max_schedules = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::Usage("--schedules needs a positive count".into()))?;
            }
            "--preemptions" => {
                opts.preemption_budget = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::Usage("--preemptions needs a count".into()))?;
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown option `{other}`")));
            }
            name => names.push(name.to_string()),
        }
    }

    if list {
        println!("{:<26} {:<8} about", "harness", "kind");
        for h in harnesses() {
            let kind = if h.seeded_bug { "seeded" } else { "passing" };
            println!("{:<26} {:<8} {}", h.name, kind, h.about);
        }
        return Ok(());
    }

    let selected: Vec<&Harness> = if names.is_empty() {
        // The default gate: every harness that must pass. Seeded-bug
        // fixtures are opt-in by name (they exist to fail).
        harnesses().iter().filter(|h| !h.seeded_bug).collect()
    } else {
        names
            .iter()
            .map(|n| {
                find_harness(n)
                    .ok_or_else(|| CliError::Usage(format!("unknown harness `{n}`; try --list")))
            })
            .collect::<Result<_, _>>()?
    };

    use serde_json::{Number, Value};
    let jnum = |n: u64| Value::Number(Number::from_u64(n));
    let jstr = |s: &str| Value::String(s.to_string());

    let mut failed = 0usize;
    let mut reports = Vec::new();
    for h in &selected {
        match h.run(&opts) {
            Ok(explored) => {
                if json {
                    let mut obj = serde_json::Map::new();
                    obj.insert("harness".into(), jstr(h.name));
                    obj.insert("ok".into(), Value::Bool(true));
                    obj.insert("schedules".into(), jnum(explored.schedules as u64));
                    obj.insert("complete".into(), Value::Bool(explored.complete));
                    obj.insert("max_steps".into(), jnum(explored.max_steps as u64));
                    obj.insert(
                        "preemption_budget".into(),
                        jnum(explored.preemption_budget as u64),
                    );
                    reports.push(Value::Object(obj));
                } else {
                    let coverage = if explored.complete {
                        "state space exhausted"
                    } else {
                        "schedule cap reached"
                    };
                    println!(
                        "ok   {:<26} {} schedules, {} (budget {})",
                        h.name, explored.schedules, coverage, explored.preemption_budget
                    );
                }
            }
            Err(failure) => {
                failed += 1;
                if json {
                    let mut obj = serde_json::Map::new();
                    obj.insert("harness".into(), jstr(h.name));
                    obj.insert("ok".into(), Value::Bool(false));
                    obj.insert("kind".into(), jstr(&failure.kind.to_string()));
                    obj.insert("message".into(), jstr(&failure.message));
                    obj.insert("schedule".into(), jstr(&failure.schedule));
                    obj.insert("schedules_explored".into(), jnum(failure.schedules as u64));
                    obj.insert(
                        "trace".into(),
                        Value::Array(failure.trace.iter().map(|l| jstr(l)).collect()),
                    );
                    reports.push(Value::Object(obj));
                } else {
                    println!("FAIL {:<26} after {} schedules", h.name, failure.schedules);
                    for line in failure.to_string().lines() {
                        println!("     {line}");
                    }
                }
            }
        }
    }
    if json {
        println!("{}", serde_json::to_string_pretty(&Value::Array(reports)));
    }
    if failed > 0 {
        Err(CliError::Runtime(format!(
            "{failed} of {} harness(es) failed model checking",
            selected.len()
        )))
    } else {
        Ok(())
    }
}

/// `paraconv postmortem <dump>`: decode a flight-recorder dump and
/// render it for a human.
fn postmortem_command(args: &[String]) -> Result<(), CliError> {
    let path = args
        .get(1)
        .ok_or_else(|| CliError::Usage("postmortem needs a dump file".into()))?;
    if args.len() > 2 {
        return Err(CliError::Usage(
            "postmortem takes exactly one dump file".into(),
        ));
    }
    let bytes =
        std::fs::read(path).map_err(|e| CliError::Runtime(format!("cannot read `{path}`: {e}")))?;
    let artifact = plan_registry::decode_postmortem(&bytes)
        .map_err(|e| CliError::Runtime(format!("postmortem rejected: {e}")))?;
    let header = &artifact.header;
    let bundle = &artifact.bundle;
    println!(
        "postmortem (format v{}, producer {})",
        header.format, header.producer
    );
    println!("content hash: {}", header.content_hash);
    println!("reason:       {}", bundle.reason);
    if !bundle.context.is_empty() {
        println!();
        println!("context:");
        for (k, v) in &bundle.context {
            println!("  {k:<16} {v}");
        }
    }
    println!();
    if bundle.events.is_empty() {
        println!("flight recorder: no events captured");
    } else {
        println!(
            "flight recorder ({} event(s), oldest first):",
            bundle.events.len()
        );
        println!(
            "  {:>5}  {:<6} {:<18} {:>12}  value",
            "seq", "cat", "event", "cycle"
        );
        for e in &bundle.events {
            println!(
                "  {:>5}  {:<6} {:<18} {:>12}  {}",
                e.seq, e.cat, e.label, e.cycle, e.value
            );
        }
    }
    println!();
    println!("metrics at failure:");
    print!("{}", bundle.metrics);
    Ok(())
}

/// `paraconv bench report|diff`: trajectory analysis over committed
/// `BENCH_<n>.json` perf baselines.
fn bench_command(args: &[String]) -> Result<(), CliError> {
    let sub = args
        .get(1)
        .ok_or_else(|| CliError::Usage("bench needs a subcommand: report or diff".into()))?;
    let mut dir = ".".to_owned();
    let mut tolerance_bp = paraconv::bench_report::DEFAULT_TOLERANCE_BP;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 2;
    while i < args.len() {
        let flag = &args[i];
        if !flag.starts_with("--") {
            positional.push(flag.clone());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--dir" => dir = value.clone(),
            "--tolerance-bp" => {
                tolerance_bp = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --tolerance-bp `{value}`")))?;
                if tolerance_bp > 10_000 {
                    return Err(CliError::Usage(
                        "--tolerance-bp is in basis points (0-10000)".into(),
                    ));
                }
            }
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
        i += 2;
    }
    let report = match sub.as_str() {
        "report" => {
            if !positional.is_empty() {
                return Err(CliError::Usage(
                    "bench report takes no positional arguments (use --dir)".into(),
                ));
            }
            let entries = paraconv::bench_report::load_series(std::path::Path::new(&dir))
                .map_err(CliError::Runtime)?;
            let ids: Vec<String> = entries.iter().map(|e| e.bench_id.to_string()).collect();
            println!(
                "bench series: {} report(s) [{}], tolerance {:.1}%",
                entries.len(),
                ids.join(", "),
                tolerance_bp as f64 / 100.0
            );
            paraconv::bench_report::analyze(&entries, tolerance_bp)
        }
        "diff" => {
            let [a_path, b_path] = positional.as_slice() else {
                return Err(CliError::Usage(
                    "bench diff takes exactly two report files".into(),
                ));
            };
            let read = |path: &String| -> Result<paraconv::bench_report::BenchEntry, CliError> {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Runtime(format!("cannot read `{path}`: {e}")))?;
                paraconv::bench_report::BenchEntry::parse(path, &text).map_err(CliError::Runtime)
            };
            println!(
                "bench diff: {a_path} -> {b_path}, tolerance {:.1}%",
                tolerance_bp as f64 / 100.0
            );
            paraconv::bench_report::diff(&read(a_path)?, &read(b_path)?, tolerance_bp)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown bench subcommand `{other}`"
            )))
        }
    };

    for t in &report.trajectories {
        let gate = if t.gated { "gated" } else { "info " };
        println!();
        println!("{} [{gate}]", t.name);
        for (idx, (id, value)) in t.points.iter().enumerate() {
            let shown = value.map_or("-".to_owned(), |v| format!("{v:.1}"));
            let step = if idx == 0 {
                String::new()
            } else {
                match t.steps.get(idx - 1).copied().flatten() {
                    Some(r) => format!("  ({r:.3}x)"),
                    None => "  (not comparable)".to_owned(),
                }
            };
            println!("  BENCH_{id}: {shown}{step}");
        }
    }
    println!();
    if report.ok() {
        println!("no regressions on the final step");
        Ok(())
    } else {
        for r in &report.regressions {
            println!(
                "REGRESSED {}: BENCH_{} {:.1} -> BENCH_{} {:.1} (floor {:.1})",
                r.metric, r.prior_id, r.prior, r.fresh_id, r.fresh, r.floor
            );
        }
        Err(CliError::Runtime(format!(
            "{} metric(s) regressed past {:.1}% tolerance",
            report.regressions.len(),
            report.tolerance_bp as f64 / 100.0
        )))
    }
}

/// `paraconv check trace|metrics|prom <file>`: validate an exported
/// observability artifact's format without any external tooling.
fn check_command(args: &[String]) -> Result<(), CliError> {
    let kind = args
        .get(1)
        .ok_or_else(|| CliError::Usage("check needs a kind: trace, metrics, or prom".into()))?;
    if !matches!(kind.as_str(), "trace" | "metrics" | "prom") {
        return Err(CliError::Usage(format!("unknown check kind `{kind}`")));
    }
    let path = args
        .get(2)
        .ok_or_else(|| CliError::Usage(format!("check {kind} needs a file")))?;
    if args.len() > 3 {
        return Err(CliError::Usage("check takes exactly one file".into()));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read `{path}`: {e}")))?;
    match kind.as_str() {
        "trace" => {
            let events = check_trace(&text).map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: {events} trace event(s) OK");
            Ok(())
        }
        "metrics" => {
            let lines = check_metrics_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: {lines} metric line(s) OK");
            Ok(())
        }
        "prom" => {
            let samples = obs::check_prometheus(&text).map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: {samples} sample(s) OK");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown check kind `{other}`"))),
    }
}

/// Validates a Chrome trace-event JSON export: a `traceEvents` array
/// of objects whose `ph` is `X` or `M` with integer `pid`/`tid`.
fn check_trace(text: &str) -> Result<usize, String> {
    let root = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let events = root
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .ok_or("missing `traceEvents` array")?;
    if events.is_empty() {
        return Err("trace has no events".into());
    }
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ph != "X" && ph != "M" {
            return Err(format!("event {i}: unexpected phase `{ph}`"));
        }
        for field in ["pid", "tid"] {
            if e.get(field).and_then(serde_json::Value::as_u64).is_none() {
                return Err(format!("event {i}: missing integer `{field}`"));
            }
        }
        if e.get("name").and_then(serde_json::Value::as_str).is_none() {
            return Err(format!("event {i}: missing string `name`"));
        }
    }
    Ok(events.len())
}

/// Validates a metrics JSONL export: every non-blank line is a JSON
/// object with a known `type` and a string `name`.
fn check_metrics_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let kind = obj
            .get("type")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("line {}: missing `type`", n + 1))?;
        if !matches!(kind, "counter" | "gauge" | "histogram") {
            return Err(format!("line {}: unknown type `{kind}`", n + 1));
        }
        if obj
            .get("name")
            .and_then(serde_json::Value::as_str)
            .is_none()
        {
            return Err(format!("line {}: missing string `name`", n + 1));
        }
        count += 1;
    }
    if count == 0 {
        return Err("no metric lines".into());
    }
    Ok(count)
}

/// Dispatches `paraconv plan <export|import|diff>`.
fn plan_command(args: &[String]) -> Result<(), CliError> {
    let sub = args.get(1).ok_or_else(|| {
        CliError::Usage("plan needs a subcommand: export, import, or diff".into())
    })?;
    match sub.as_str() {
        "export" => plan_export(args),
        "import" => plan_import(args),
        "diff" => plan_diff(args),
        other => Err(CliError::Usage(format!(
            "unknown plan subcommand `{other}`"
        ))),
    }
}

/// Parsed `plan export` / `plan import` options.
struct PlanOpts {
    /// Positional arguments (benchmark name, or import/diff paths).
    positional: Vec<String>,
    all: bool,
    zoo: bool,
    run: bool,
    pes: usize,
    iters: u64,
    out: Option<String>,
    dir: Option<String>,
    registry: Option<String>,
    key: Option<String>,
}

/// Parses `plan` flags; `args[0]` is `plan` and `args[1]` the
/// subcommand.
fn plan_options(args: &[String]) -> Result<PlanOpts, CliError> {
    let mut opts = PlanOpts {
        positional: Vec::new(),
        all: false,
        zoo: false,
        run: false,
        pes: 16,
        iters: 50,
        out: None,
        dir: None,
        registry: None,
        key: None,
    };
    let mut i = 2;
    while i < args.len() {
        let flag = &args[i];
        match flag.as_str() {
            "--all" => {
                opts.all = true;
                i += 1;
                continue;
            }
            "--zoo" => {
                opts.zoo = true;
                i += 1;
                continue;
            }
            "--run" => {
                opts.run = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        if !flag.starts_with("--") {
            opts.positional.push(flag.clone());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--pes" => {
                opts.pes = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --pes `{value}`")))?;
            }
            "--iters" => {
                opts.iters = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --iters `{value}`")))?;
            }
            "--out" => opts.out = Some(value.clone()),
            "--dir" => opts.dir = Some(value.clone()),
            "--registry" => opts.registry = Some(value.clone()),
            "--key" => opts.key = Some(value.clone()),
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
        i += 2;
    }
    Ok(opts)
}

/// Lowercases a target name into a filesystem-safe slug: alphanumeric
/// runs joined by single dashes.
fn slugify(name: &str) -> String {
    let mut out = String::new();
    let mut pending_dash = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            if pending_dash && !out.is_empty() {
                out.push('-');
            }
            pending_dash = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending_dash = true;
        }
    }
    out
}

/// Opens the registry named by `--registry`, if any.
fn open_registry(opts: &PlanOpts) -> Result<Option<Registry>, CliError> {
    opts.registry
        .as_ref()
        .map(|dir| {
            Registry::open(dir)
                .map_err(|e| CliError::Runtime(format!("cannot open registry `{dir}`: {e}")))
        })
        .transpose()
}

fn plan_export(args: &[String]) -> Result<(), CliError> {
    let opts = plan_options(args)?;
    if opts.positional.len() > 1 {
        return Err(CliError::Usage(
            "plan export takes at most one benchmark name".into(),
        ));
    }
    let named = opts.positional.first();
    if named.is_none() && !opts.all {
        return Err(CliError::Usage(
            "plan export needs a benchmark name or --all".into(),
        ));
    }
    if named.is_some() && (opts.all || opts.zoo) {
        return Err(CliError::Usage(
            "--all/--zoo cannot be combined with a benchmark name".into(),
        ));
    }

    let mut targets: Vec<(String, TaskGraph)> = Vec::new();
    if let Some(name) = named {
        targets.push((name.clone(), load(Some(name))?));
    } else {
        for b in benchmarks::all() {
            targets.push((b.name().to_owned(), b.graph().map_err(|e| e.to_string())?));
        }
        if opts.zoo {
            let zoo = paraconv::cnn::zoo::all().map_err(|e| e.to_string())?;
            for (class, network) in &zoo {
                let graph =
                    paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
                        .map_err(|e| e.to_string())?;
                targets.push((format!("{class}/{}", network.name()), graph));
            }
        }
    }

    let cfg = config(opts.pes)?;
    let policy = PlanPolicy {
        allocation: AllocationPolicy::DynamicProgram,
        iterations: opts.iters,
    };
    let registry = open_registry(&opts)?;
    if targets.len() > 1 || opts.all {
        let dir = opts.dir.clone().unwrap_or_else(|| "plans".to_owned());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create output directory `{dir}`: {e}"))?;
    }
    let count = targets.len();
    for (name, graph) in targets {
        let key = plan_registry::request_key(&graph, &cfg, &policy);
        let cached = match registry.as_ref().map(|reg| reg.get(&key)) {
            // An object in another artifact format is stale: re-plan
            // and overwrite it.
            None | Some(Err(plan_registry::ArtifactError::VersionSkew { .. })) => None,
            Some(read) => read.map_err(|e| format!("registry read failed for `{name}`: {e}"))?,
        };
        let (bytes, source) = match cached {
            Some(bytes) => (bytes, "registry hit"),
            None => {
                let outcome = ParaConvScheduler::new(cfg.clone())
                    .with_policy(policy.allocation)
                    .schedule(&graph, opts.iters)
                    .map_err(|e| format!("{name}: {e}"))?;
                paraconv::verify::verify_outcome(&graph, &outcome, &cfg)
                    .map_err(|e| format!("{name}: refusing to export an unprovable plan: {e}"))?;
                let bundle = PlanBundle {
                    graph,
                    config: cfg.clone(),
                    policy,
                    outcome,
                };
                let bytes = bundle.encode();
                if let Some(reg) = &registry {
                    reg.put(&key, &bytes)
                        .map_err(|e| format!("registry write failed for `{name}`: {e}"))?;
                }
                (bytes, "scheduled")
            }
        };
        let path = if opts.all {
            let dir = opts.dir.as_deref().unwrap_or("plans");
            format!("{dir}/{}.plan", slugify(&name))
        } else {
            opts.out
                .clone()
                .unwrap_or_else(|| format!("{}.plan", slugify(&name)))
        };
        std::fs::write(&path, &bytes)
            .map_err(|e| format!("cannot write artifact to `{path}`: {e}"))?;
        println!("{name}: {source}, key {key} -> {path}");
    }
    println!("{count} plan artifact(s) exported");
    Ok(())
}

fn plan_import(args: &[String]) -> Result<(), CliError> {
    let opts = plan_options(args)?;
    if opts.positional.len() > 1 {
        return Err(CliError::Usage("plan import takes exactly one file".into()));
    }
    let bytes = match (opts.positional.first(), &opts.key) {
        (Some(path), None) => std::fs::read(path)
            .map_err(|e| CliError::Runtime(format!("cannot read `{path}`: {e}")))?,
        (None, Some(key)) => {
            let registry = open_registry(&opts)?.ok_or_else(|| {
                CliError::Usage("--key needs --registry <dir> to fetch from".into())
            })?;
            registry
                .get(key)
                .map_err(|e| CliError::Runtime(e.to_string()))?
                .ok_or_else(|| CliError::Runtime(format!("key {key} not in registry")))?
        }
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "plan import takes a file or --key, not both".into(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage(
                "plan import needs an artifact file or --registry/--key".into(),
            ))
        }
    };

    // Untrusted-producer pipeline: typed decode, then the mandatory
    // verifier gate. Nothing downstream (simulation, re-export) runs
    // unless both pass.
    let artifact = plan_registry::decode(&bytes).map_err(|e| {
        obs::counter_add("registry.import_rejects", 1);
        CliError::Runtime(format!("import rejected: {e}"))
    })?;
    let bundle = &artifact.bundle;
    let report = paraconv::verify::verify_outcome(&bundle.graph, &bundle.outcome, &bundle.config)
        .map_err(|e| {
        obs::counter_add("registry.verify_rejects", 1);
        CliError::Runtime(format!("imported plan failed the verifier gate: {e}"))
    })?;

    println!(
        "imported `{}`: {} nodes, {} IPRs, {} PEs, {} iterations",
        bundle.graph.name(),
        bundle.graph.node_count(),
        bundle.graph.edge_count(),
        bundle.config.num_pes(),
        bundle.policy.iterations
    );
    println!(
        "producer {} (format v{}), key {}",
        artifact.header.producer, artifact.header.format, artifact.header.key
    );
    println!("verifier gate: PROVED");
    println!("{report}");

    if let Some(path) = &opts.out {
        std::fs::write(path, bundle.encode())
            .map_err(|e| format!("cannot write canonical artifact to `{path}`: {e}"))?;
    }
    if opts.run {
        let report = paraconv::pim::simulate(&bundle.graph, &bundle.outcome.plan, &bundle.config)
            .map_err(|e| format!("simulation of the imported plan failed: {e}"))?;
        println!("{report}");
    }
    Ok(())
}

fn plan_diff(args: &[String]) -> Result<(), CliError> {
    let opts = plan_options(args)?;
    let [a_path, b_path] = opts.positional.as_slice() else {
        return Err(CliError::Usage(
            "plan diff takes exactly two artifact files".into(),
        ));
    };
    let decode_file = |path: &String| -> Result<plan_registry::PlanArtifact, CliError> {
        let bytes = std::fs::read(path)
            .map_err(|e| CliError::Runtime(format!("cannot read `{path}`: {e}")))?;
        plan_registry::decode(&bytes)
            .map_err(|e| CliError::Runtime(format!("`{path}` rejected: {e}")))
    };
    let a = decode_file(a_path)?;
    let b = decode_file(b_path)?;
    if a.bundle.encode() == b.bundle.encode() {
        println!("plans are identical (key {})", a.header.key);
        return Ok(());
    }
    let sections = a.bundle.diff_sections(&b.bundle);
    Err(CliError::Runtime(format!(
        "plans differ in: {}",
        sections.join(", ")
    )))
}

/// Parsed `chaos` subcommand options.
struct ChaosOpts {
    seed: u64,
    rate_bp: u32,
    kills: Vec<(u32, u64)>,
    pes: usize,
    iters: u64,
    json: bool,
    postmortem: Option<String>,
}

impl ChaosOpts {
    /// Builds the validated fault specification.
    fn spec(&self) -> Result<FaultSpec, CliError> {
        let mut builder = FaultSpec::builder(self.seed).uniform_rate_bp(self.rate_bp);
        for &(pe, cycle) in &self.kills {
            builder = builder.kill_pe(pe, cycle);
        }
        builder
            .build()
            .map_err(|e| CliError::Usage(format!("invalid fault campaign: {e}")))
    }
}

/// Parses `chaos` flags; `args[0]` is the subcommand and `args[1]` the
/// benchmark name.
fn chaos_options(args: &[String]) -> Result<ChaosOpts, CliError> {
    let mut opts = ChaosOpts {
        seed: 0,
        rate_bp: 0,
        kills: Vec::new(),
        pes: 16,
        iters: 50,
        json: false,
        postmortem: None,
    };
    let mut i = 2;
    while i < args.len() {
        let flag = &args[i];
        if flag == "--json" {
            opts.json = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --seed `{value}`")))?;
            }
            "--fault-rate" => {
                opts.rate_bp = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --fault-rate `{value}`")))?;
            }
            "--kill-pe" => {
                let (pe, cycle) = value
                    .split_once('@')
                    .and_then(|(pe, cycle)| Some((pe.parse().ok()?, cycle.parse().ok()?)))
                    .ok_or_else(|| {
                        CliError::Usage(format!("bad --kill-pe `{value}` (expected <id>@<cycle>)"))
                    })?;
                opts.kills.push((pe, cycle));
            }
            "--pes" => {
                opts.pes = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --pes `{value}`")))?;
            }
            "--iters" => {
                opts.iters = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --iters `{value}`")))?;
            }
            "--postmortem" => opts.postmortem = Some(value.clone()),
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
        i += 2;
    }
    Ok(opts)
}

/// Writes the flight recorder + metrics snapshot of a failed chaos
/// campaign as a content-hashed postmortem artifact and returns its
/// path. The context carries only campaign parameters — nothing
/// host- or worker-count-dependent — so the bytes are identical at
/// every `PARACONV_JOBS` width.
fn dump_postmortem(name: &str, reason: &str, opts: &ChaosOpts) -> Result<String, CliError> {
    let mut context = std::collections::BTreeMap::new();
    context.insert("benchmark".to_owned(), name.to_owned());
    context.insert("seed".to_owned(), opts.seed.to_string());
    context.insert("fault_rate_bp".to_owned(), opts.rate_bp.to_string());
    context.insert("kills".to_owned(), opts.kills.len().to_string());
    context.insert("pes".to_owned(), opts.pes.to_string());
    context.insert("iterations".to_owned(), opts.iters.to_string());
    let bundle = plan_registry::PostmortemBundle {
        reason: reason.to_owned(),
        context,
        events: obs::flight_events(),
        metrics: obs::snapshot(),
    };
    let path = opts
        .postmortem
        .clone()
        .unwrap_or_else(|| format!("{}.postmortem", slugify(name)));
    std::fs::write(&path, bundle.encode())
        .map_err(|e| CliError::Runtime(format!("cannot write postmortem to `{path}`: {e}")))?;
    Ok(path)
}

/// Turns recording on (from a clean slate) when the parsed options
/// request any export.
fn start_observing(opts: &Opts) {
    if opts.observing() {
        obs::reset();
        obs::enable();
    }
}

/// Writes the requested observability artifacts and disables
/// recording. `plan_trace` carries the simulated plan timeline for
/// single-plan subcommands; phase spans are appended either way.
fn export(opts: &Opts, plan_trace: Option<obs::ChromeTrace>) -> Result<(), CliError> {
    if !opts.observing() {
        return Ok(());
    }
    obs::disable();
    if let Some(path) = &opts.metrics {
        let snapshot = obs::snapshot();
        std::fs::write(path, snapshot.to_jsonl())
            .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
    }
    if let Some(path) = &opts.trace {
        let mut trace = plan_trace.unwrap_or_default();
        trace.name_process(0, "pipeline");
        trace.push_spans(0, &obs::take_spans());
        std::fs::write(path, trace.to_json())
            .map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
    }
    Ok(())
}

fn load(name: Option<&String>) -> Result<TaskGraph, CliError> {
    let name = name.ok_or_else(|| CliError::Usage("missing benchmark name".into()))?;
    let bench = benchmarks::by_name(name).ok_or_else(|| {
        CliError::Usage(format!("unknown benchmark `{name}` (try `paraconv list`)"))
    })?;
    bench.graph().map_err(|e| CliError::Runtime(e.to_string()))
}

fn config(pes: usize) -> Result<PimConfig, CliError> {
    PimConfig::neurocube(pes).map_err(|e| CliError::Usage(e.to_string()))
}

/// Parses the shared flags with defaults; `args[0]` is the subcommand
/// and `args[1]` the benchmark name (or a placeholder).
fn options(args: &[String]) -> Result<Opts, CliError> {
    let mut opts = Opts {
        pes: None,
        iters: 50,
        window: 60,
        quick: false,
        trace: None,
        metrics: None,
    };
    let mut i = 2;
    while i < args.len() {
        let flag = &args[i];
        if flag == "--quick" {
            opts.quick = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--pes" => {
                opts.pes = Some(
                    value
                        .parse()
                        .map_err(|_| CliError::Usage(format!("bad --pes `{value}`")))?,
                );
            }
            "--iters" => {
                opts.iters = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --iters `{value}`")))?;
            }
            "--window" => {
                opts.window = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --window `{value}`")))?;
            }
            "--trace" => opts.trace = Some(value.clone()),
            "--metrics" => opts.metrics = Some(value.clone()),
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
        i += 2;
    }
    Ok(opts)
}

/// Options shared by `serve` and `chaos --serve`.
struct ServeOpts {
    addr: String,
    addr_file: Option<String>,
    jobs: Option<usize>,
    queue: usize,
    registry: Option<String>,
    quota: u64,
    breaker_threshold: u64,
    breaker_cooldown: u64,
    seed: u64,
    worker_kill_bp: u32,
    slow_bp: u32,
    disk_fail_bp: u32,
    requests: u64,
    clients: u64,
    json: bool,
    postmortem: Option<String>,
}

impl ServeOpts {
    /// The engine config this invocation asks for.
    fn config(&self) -> Result<paraconv::serve::ServeConfig, CliError> {
        let fault = if self.worker_kill_bp > 0 || self.slow_bp > 0 || self.disk_fail_bp > 0 {
            Some(
                FaultSpec::builder(self.seed)
                    .worker_kill_bp(self.worker_kill_bp)
                    .slow_request_bp(self.slow_bp)
                    .cache_write_fail_bp(self.disk_fail_bp)
                    .build()
                    .map_err(|e| CliError::Usage(e.to_string()))?,
            )
        } else {
            None
        };
        let defaults = paraconv::serve::ServeConfig::default();
        Ok(paraconv::serve::ServeConfig {
            jobs: self.jobs.unwrap_or(defaults.jobs),
            queue_capacity: self.queue,
            registry_path: self.registry.clone().map(Into::into),
            quota: self.quota,
            breaker_threshold: self.breaker_threshold,
            breaker_cooldown: self.breaker_cooldown,
            fault,
        })
    }
}

fn serve_options(args: &[String]) -> Result<ServeOpts, CliError> {
    let mut opts = ServeOpts {
        addr: "127.0.0.1:0".into(),
        addr_file: None,
        jobs: None,
        queue: 64,
        registry: None,
        quota: 16,
        breaker_threshold: 3,
        breaker_cooldown: 8,
        seed: 0,
        worker_kill_bp: 0,
        slow_bp: 0,
        disk_fail_bp: 0,
        requests: 512,
        clients: 8,
        json: false,
        postmortem: None,
    };
    let mut i = 1;
    while i < args.len() {
        let flag = &args[i];
        match flag.as_str() {
            "--serve" | "--json" => {
                opts.json |= flag == "--json";
                i += 1;
                continue;
            }
            _ => {}
        }
        if !flag.starts_with("--") {
            return Err(CliError::Usage(format!("unexpected argument `{flag}`")));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        let parse_num = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| CliError::Usage(format!("bad {what} `{value}`")))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value.clone(),
            "--addr-file" => opts.addr_file = Some(value.clone()),
            "--registry" => opts.registry = Some(value.clone()),
            "--jobs" => {
                opts.jobs = Some(usize::try_from(parse_num("--jobs")?).unwrap_or(usize::MAX));
            }
            "--queue" => {
                opts.queue = usize::try_from(parse_num("--queue")?).unwrap_or(usize::MAX);
                if opts.queue == 0 {
                    return Err(CliError::Usage("--queue must be positive".into()));
                }
            }
            "--quota" => opts.quota = parse_num("--quota")?,
            "--breaker-threshold" => opts.breaker_threshold = parse_num("--breaker-threshold")?,
            "--breaker-cooldown" => opts.breaker_cooldown = parse_num("--breaker-cooldown")?,
            "--seed" => opts.seed = parse_num("--seed")?,
            "--worker-kill" => {
                opts.worker_kill_bp = u32::try_from(parse_num("--worker-kill")?)
                    .map_err(|_| CliError::Usage("bad --worker-kill".into()))?;
            }
            "--slow" => {
                opts.slow_bp = u32::try_from(parse_num("--slow")?)
                    .map_err(|_| CliError::Usage("bad --slow".into()))?;
            }
            "--disk-fail" => {
                opts.disk_fail_bp = u32::try_from(parse_num("--disk-fail")?)
                    .map_err(|_| CliError::Usage("bad --disk-fail".into()))?;
            }
            "--requests" => opts.requests = parse_num("--requests")?,
            "--postmortem" => opts.postmortem = Some(value.clone()),
            "--clients" => {
                opts.clients = parse_num("--clients")?;
                if opts.clients == 0 {
                    return Err(CliError::Usage("--clients must be positive".into()));
                }
            }
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
        i += 2;
    }
    Ok(opts)
}

/// `paraconv serve`: bind, announce the address, park until a client
/// drains the daemon, then print the final counters.
fn serve_command(args: &[String]) -> Result<(), CliError> {
    let opts = serve_options(args)?;
    obs::reset();
    obs::enable();
    let handle = paraconv::serve::daemon::serve(&opts.addr, opts.config()?)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let addr = handle.addr();
    if let Some(path) = &opts.addr_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| CliError::Runtime(format!("cannot write `{path}`: {e}")))?;
    }
    println!("listening on {addr}");
    handle.wait_for_drain();
    let stats = handle.shutdown();
    obs::disable();
    println!("{}", stats.to_json());
    if stats.accepted != stats.served + stats.deadline + stats.failed {
        return Err(CliError::Runtime(format!(
            "accepted {} but only {} answered — a request was lost",
            stats.accepted,
            stats.served + stats.deadline + stats.failed
        )));
    }
    Ok(())
}

/// `paraconv client`: stream JSONL requests from stdin to a daemon and
/// its responses to stdout. Exits non-zero only on transport failure —
/// per-request failures are data, not process errors.
fn client_command(args: &[String]) -> Result<(), CliError> {
    use std::io::{BufRead, Write};
    let mut addr = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = Some(
                    args.get(i + 1)
                        .ok_or_else(|| CliError::Usage("--addr needs a value".into()))?
                        .clone(),
                );
                i += 2;
            }
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
    }
    let addr = addr.ok_or_else(|| CliError::Usage("client needs --addr <host:port>".into()))?;
    let stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| CliError::Runtime(format!("cannot connect to `{addr}`: {e}")))?;
    let mut writer = std::io::BufWriter::new(
        stream
            .try_clone()
            .map_err(|e| CliError::Runtime(e.to_string()))?,
    );
    let mut reader = std::io::BufReader::new(stream);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| CliError::Runtime(format!("stdin read failed: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| CliError::Runtime(format!("send failed: {e}")))?;
        let mut response = String::new();
        let n = reader
            .read_line(&mut response)
            .map_err(|e| CliError::Runtime(format!("receive failed: {e}")))?;
        if n == 0 {
            return Err(CliError::Runtime("daemon closed the connection".into()));
        }
        out.write_all(response.as_bytes())
            .map_err(|e| CliError::Runtime(format!("stdout write failed: {e}")))?;
    }
    Ok(())
}

/// Deterministic pseudo-random stream for the serving chaos campaign
/// (SplitMix64; the CLI cannot depend on a rand crate).
fn chaos_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `paraconv chaos --serve`: an in-process serving chaos campaign.
/// Mixed cold/cached/poisoned/deadline requests from concurrent client
/// threads against an engine with worker-kill, slow-request and
/// disk-full injection; then prove the robustness contract:
/// every accepted request answered exactly once, every `ok` key maps
/// to one decodable (untorn) artifact, and drain is clean.
fn serve_chaos_command(args: &[String]) -> Result<(), CliError> {
    use paraconv::serve::{ServeCore, ServeStatus, Submission};
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    let mut opts = serve_options(args)?;
    // A chaos campaign with no faults proves nothing: default the
    // injection rates up when the user did not pin them.
    if opts.worker_kill_bp == 0 && opts.slow_bp == 0 && opts.disk_fail_bp == 0 {
        opts.worker_kill_bp = 500;
        opts.slow_bp = 200;
        opts.disk_fail_bp = 300;
    }
    let temp_registry = opts.registry.is_none();
    if temp_registry {
        let dir = std::env::temp_dir().join(format!(
            "paraconv-serve-chaos-{}-{}",
            std::process::id(),
            opts.seed
        ));
        opts.registry = Some(dir.to_string_lossy().into_owned());
    }

    obs::reset();
    obs::enable();
    // The serving path records every injected worker kill into the
    // flight recorder; keep it on for the whole campaign so the
    // optional postmortem dump carries the injected failures.
    obs::flight_enable(obs::DEFAULT_FLIGHT_CAPACITY);
    let core =
        Arc::new(ServeCore::new(opts.config()?).map_err(|e| CliError::Runtime(e.to_string()))?);
    core.start();

    let benches = ["cat", "car"];
    let responses: Arc<Mutex<Vec<paraconv::serve::ServeResponse>>> =
        Arc::new(Mutex::new(Vec::new()));
    let per_client = opts.requests / opts.clients;
    let threads: Vec<_> = (0..opts.clients)
        .map(|c| {
            let core = Arc::clone(&core);
            let responses = Arc::clone(&responses);
            let seed = opts.seed;
            std::thread::spawn(move || {
                for r in 0..per_client {
                    let roll = chaos_mix(seed ^ (c << 32) ^ r);
                    // Mix: ~1/8 poisoned, ~1/8 zero-deadline, the rest
                    // split between a handful of hot keys (cached) and
                    // per-client cold keys.
                    let poisoned = roll.is_multiple_of(8);
                    let deadline = roll % 8 == 1;
                    let hot = !roll.is_multiple_of(4);
                    let request = paraconv::serve::PlanRequest {
                        id: format!("c{c}-r{r}"),
                        tenant: format!("tenant-{}", c % 3),
                        benchmark: if poisoned {
                            "no-such-benchmark".into()
                        } else {
                            benches[(roll as usize / 8) % benches.len()].into()
                        },
                        pes: if hot { 8 } else { 8 + 4 * ((c as usize) % 3) },
                        iterations: if hot { 4 } else { 4 + r % 3 },
                        policy: AllocationPolicy::DynamicProgram,
                        deadline_ms: if deadline { Some(0) } else { None },
                    };
                    let response = match core.submit(request) {
                        Submission::Accepted(ticket) => ticket.wait(),
                        Submission::Rejected(response) => response,
                    };
                    responses
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(response);
                }
                obs::flush_thread();
            })
        })
        .collect();
    for t in threads {
        t.join()
            .map_err(|_| CliError::Runtime("a chaos client panicked".into()))?;
    }
    let stats = core.drain();
    obs::disable();

    // Invariant 1: every submission was answered exactly once.
    let responses = std::mem::take(
        &mut *responses
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    let submitted = per_client * opts.clients;
    let mut violations: Vec<String> = Vec::new();
    if responses.len() as u64 != submitted {
        violations.push(format!(
            "submitted {submitted} requests but saw {} responses",
            responses.len()
        ));
    }

    // Invariant 2: accepted requests are conserved — each ends in
    // exactly one terminal counter, none lost to kills or drain.
    let answered = stats.served + stats.deadline + stats.failed;
    if stats.accepted != answered {
        violations.push(format!(
            "accepted {} but answered {answered} — requests lost",
            stats.accepted
        ));
    }

    // Invariant 3: every `ok` key resolves to one decodable artifact,
    // byte-identical no matter how many responses carried the key.
    let mut keys: BTreeMap<String, u64> = BTreeMap::new();
    for response in &responses {
        if response.status == ServeStatus::Ok {
            match &response.key {
                Some(key) => *keys.entry(key.clone()).or_insert(0) += 1,
                None => violations.push(format!("ok response `{}` without a key", response.id)),
            }
        }
    }
    for key in keys.keys() {
        match core.cache().lookup(key) {
            None => violations.push(format!("served key {key} is not resident")),
            Some(bytes) => {
                if let Err(e) = plan_registry::decode(&bytes) {
                    violations.push(format!("torn artifact for {key}: {e}"));
                }
            }
        }
    }

    let report = |k: &str, v: u64| println!("  \"{k}\": {v},");
    if opts.json {
        println!("{{");
        println!("  \"seed\": {},", opts.seed);
        report("requests", submitted);
        report("accepted", stats.accepted);
        report("served", stats.served);
        report("hits", stats.hits);
        report("misses", stats.misses);
        report("shed", stats.shed);
        report("invalid", stats.invalid);
        report("quota", stats.quota);
        report("circuit_open", stats.circuit_open);
        report("deadline", stats.deadline);
        report("failed", stats.failed);
        report("worker_kills", stats.worker_kills);
        report("slow_injected", stats.slow_injected);
        report("distinct_keys", keys.len() as u64);
        println!("  \"violations\": {}", violations.len());
        println!("}}");
    } else {
        println!(
            "campaign: seed {}, {} clients x {} requests, kill {} bp, slow {} bp, disk-fail {} bp",
            opts.seed,
            opts.clients,
            per_client,
            opts.worker_kill_bp,
            opts.slow_bp,
            opts.disk_fail_bp
        );
        println!(
            "traffic:  {} accepted ({} served = {} hits + {} misses, {} deadline, {} failed)",
            stats.accepted, stats.served, stats.hits, stats.misses, stats.deadline, stats.failed
        );
        println!(
            "shed:     {} overloaded, {} invalid, {} quota, {} circuit-open",
            stats.shed, stats.invalid, stats.quota, stats.circuit_open
        );
        println!(
            "faults:   {} worker kills survived, {} slow injections, {} distinct keys intact",
            stats.worker_kills,
            stats.slow_injected,
            keys.len()
        );
        for tenant in core.tenant_stats() {
            println!(
                "tenant:   {} served {}, poisoned {}, rejected {}{}",
                tenant.tenant,
                tenant.served,
                tenant.poisoned,
                tenant.rejected,
                if tenant.circuit_open {
                    " [circuit open]"
                } else {
                    ""
                }
            );
        }
    }

    // `--postmortem` snapshots the campaign — injected worker kills in
    // the flight recorder plus the final metrics — whether or not the
    // contract held, so `paraconv postmortem` can replay the faults.
    if let Some(path) = &opts.postmortem {
        let mut context = BTreeMap::new();
        context.insert("campaign".to_owned(), "chaos --serve".to_owned());
        context.insert("seed".to_owned(), opts.seed.to_string());
        context.insert("requests".to_owned(), submitted.to_string());
        context.insert("clients".to_owned(), opts.clients.to_string());
        context.insert("worker_kill_bp".to_owned(), opts.worker_kill_bp.to_string());
        context.insert("slow_bp".to_owned(), opts.slow_bp.to_string());
        context.insert("disk_fail_bp".to_owned(), opts.disk_fail_bp.to_string());
        let bundle = plan_registry::PostmortemBundle {
            reason: format!(
                "serving chaos campaign: survived {} injected worker kill(s), \
                 {} slow injection(s), {} violation(s)",
                stats.worker_kills,
                stats.slow_injected,
                violations.len()
            ),
            context,
            events: obs::flight_events(),
            metrics: obs::snapshot(),
        };
        std::fs::write(path, bundle.encode())
            .map_err(|e| CliError::Runtime(format!("cannot write postmortem to `{path}`: {e}")))?;
        println!("postmortem: campaign dumped to `{path}`");
    }
    obs::flight_disable();

    if temp_registry {
        if let Some(dir) = &opts.registry {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    if violations.is_empty() {
        println!("chaos --serve: contract holds");
        Ok(())
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        Err(CliError::Runtime(format!(
            "{} robustness violation(s)",
            violations.len()
        )))
    }
}
