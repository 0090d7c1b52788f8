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
//! Every subcommand's positional arity and the flags it reads are
//! declared once, in [`COMMANDS`] and [`FLAGS`]. One parser enforces
//! them, and the usage text is generated from the same tables, so a
//! flag a subcommand would not read is refused instead of ignored.
//! Positionals may appear anywhere among the flags.
//!
//! Exit codes: `0` success, `1` runtime failure (a run that errored,
//! a rejected artifact, plans that differ, a perf regression, a
//! malformed artifact under `check`), `2` usage error (unknown
//! subcommand, undeclared or malformed flags, a missing or extra
//! positional — usage is printed to stderr).

use std::collections::BTreeMap;
use std::process::ExitCode;

use paraconv::fault::FaultSpec;
use paraconv::graph::TaskGraph;
use paraconv::pim::{PimConfig, MAX_PES};
use paraconv::registry::{self as plan_registry, PlanBundle, PlanPolicy, Registry};
use paraconv::sched::{AllocationPolicy, ParaConvScheduler};
use paraconv::serve::ServeConfig;
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

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprint!("{}", usage_text());
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// How a flag's value is read and validated.
#[derive(Clone, Copy)]
enum Kind {
    /// A switch taking no value.
    Switch,
    /// A free-form value: a path, an address or a key.
    Text,
    /// An unsigned integer within `min..=max`.
    Count(u64, u64),
    /// A repeatable `<id>@<cycle>` PE kill.
    Kill,
}

use Kind::{Count, Kill, Switch, Text};

const ANY: u64 = u64::MAX;

/// One flag: name, value kind, usage placeholder and help line.
struct Flag(&'static str, Kind, &'static str, &'static str);

/// Every flag any subcommand reads. A subcommand accepts exactly the
/// ones its [`Command`] entry lists.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag("--pes", Count(1, MAX_PES as u64), "<n>", "processing engines (default 16; table1 sweeps 16/32/64)"),
    Flag("--iters", Count(1, ANY), "<n>", "iterations (default 50)"),
    Flag("--window", Count(0, ANY), "<n>", "gantt window length in time units (default 60)"),
    Flag("--quick", Switch, "", "small benchmark prefix, 10 iterations"),
    Flag("--all", Switch, "", "the whole benchmark suite (verify's default)"),
    Flag("--zoo", Switch, "", "also the partitioned real-CNN model zoo"),
    Flag("--trace", Text, "<path>", "write a Chrome trace-event JSON (Perfetto-loadable)"),
    Flag("--metrics", Text, "<path>", "write the metrics snapshot as JSONL"),
    Flag("--prom", Switch, "", "print the Prometheus text exposition instead"),
    Flag("--watch", Count(1, ANY), "<n>", "re-run and re-print the metrics n times (live refresh)"),
    Flag("--json", Switch, "", "machine-readable results on stdout"),
    Flag("--seed", Count(0, ANY), "<n>", "campaign seed (default 0; same seed => same report)"),
    Flag("--fault-rate", Count(0, 10_000), "<bp>", "vault/congestion/corruption rate in basis points (0-10000)"),
    Flag("--kill-pe", Kill, "<id>@<c>", "fail-stop PE <id> at cycle <c> (repeatable)"),
    Flag("--postmortem", Text, "<path>", "chaos: where a failed campaign dumps the flight recorder\n\
        (default <benchmark>.postmortem); chaos --serve: dump the campaign"),
    Flag("--serve", Switch, "", "run the in-process serving chaos campaign"),
    Flag("--requests", Count(0, ANY), "<n>", "total requests across all clients (default 512)"),
    Flag("--clients", Count(1, ANY), "<n>", "concurrent client threads (default 8)"),
    Flag("--addr", Text, "<host:port>", "serve: bind address (default 127.0.0.1:0); client: the daemon"),
    Flag("--addr-file", Text, "<path>", "write the bound address here once listening"),
    Flag("--jobs", Count(0, ANY), "<n>", "worker pool width (default PARACONV_JOBS or cores)"),
    Flag("--queue", Count(1, ANY), "<n>", "admission queue capacity (default 64)"),
    Flag("--quota", Count(0, ANY), "<n>", "per-tenant in-flight quota (default 16)"),
    Flag("--breaker-threshold", Count(0, ANY), "<n>", "consecutive poisons tripping the breaker (default 3)"),
    Flag("--breaker-cooldown", Count(0, ANY), "<n>", "rejections before a half-open probe (default 8)"),
    Flag("--worker-kill", Count(0, 10_000), "<bp>", "worker kill rate, basis points (default 0; chaos --serve 500 unless a rate is set)"),
    Flag("--slow", Count(0, 10_000), "<bp>", "slow-request injection rate (default 0; chaos --serve 200 unless a rate is set)"),
    Flag("--disk-fail", Count(0, 10_000), "<bp>", "cache-write failure rate (default 0; chaos --serve 300 unless a rate is set)"),
    Flag("--registry", Text, "<dir>", "content-addressed plan store to consult and populate"),
    Flag("--dir", Text, "<path>", "bench: directory holding BENCH_<n>.json (default .);\n\
        plan export --all: output directory (default plans/)"),
    Flag("--tolerance-bp", Count(0, 10_000), "<n>", "regression tolerance in basis points (default 2000)"),
    Flag("--out", Text, "<path>", "export: artifact path (default <benchmark>.plan);\n\
        import: re-emit the canonical artifact bytes here"),
    Flag("--key", Text, "<hex>", "import: fetch by registry key instead of a file"),
    Flag("--run", Switch, "", "import: simulate the plan after the verifier gate"),
    Flag("--list", Switch, "", "list the model-check harnesses"),
    Flag("--schedules", Count(1, ANY), "<n>", "cap on explored interleavings (default 100000)"),
    Flag("--preemptions", Count(0, ANY), "<n>", "preemption budget per schedule (default 2)"),
];

/// One subcommand: the words selecting it, its positionals (usage
/// text and accepted count range), the flags it reads and a summary.
struct Command {
    name: &'static str,
    args: &'static str,
    arity: (usize, usize),
    flags: &'static [&'static str],
    about: &'static str,
}

const fn cmd(
    name: &'static str,
    args: &'static str,
    arity: (usize, usize),
    flags: &'static [&'static str],
    about: &'static str,
) -> Command {
    Command {
        name,
        args,
        arity,
        flags,
        about,
    }
}

const PLAN_FLAGS: &[&str] = &["--pes", "--iters", "--trace", "--metrics"];

/// Every subcommand, in usage order. A two-word name is a verb
/// (`plan export`) or, for `chaos --serve`, a mode selected by its
/// flag anywhere on the line — listed before plain `chaos`.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("list", "", (0, 0), &[], "list the benchmark suite"),
    cmd("show", "<benchmark>", (1, 1), &[], "structural summary of a benchmark"),
    cmd("dot", "<benchmark>", (1, 1), &[], "Graphviz DOT on stdout"),
    cmd("run", "<benchmark>", (1, 1), PLAN_FLAGS, "schedule + simulate with Para-CONV"),
    cmd("compare", "<benchmark>", (1, 1), PLAN_FLAGS, "Para-CONV vs the SPARTA baseline"),
    cmd("gantt", "<benchmark>", (1, 1), &["--pes", "--iters", "--window", "--trace", "--metrics"],
        "ASCII Gantt of the Para-CONV plan"),
    cmd("audit", "<benchmark>", (1, 1), PLAN_FLAGS, "audit both schedulers' plans"),
    cmd("verify", "[<benchmark>]", (0, 1), &["--pes", "--iters", "--all", "--zoo"],
        "statically prove the Para-CONV plan(s)"),
    cmd("table1", "", (0, 0), &["--pes", "--iters", "--quick", "--trace", "--metrics"],
        "Table 1 (SPARTA vs Para-CONV sweep)"),
    cmd("stats", "<benchmark>", (1, 1), &["--pes", "--iters", "--prom", "--watch", "--trace", "--metrics"],
        "run compare and print its metrics"),
    cmd("chaos --serve", "", (0, 0),
        &["--serve", "--requests", "--clients", "--json", "--postmortem", "--jobs", "--queue",
          "--registry", "--quota", "--breaker-threshold", "--breaker-cooldown", "--seed",
          "--worker-kill", "--slow", "--disk-fail"],
        "in-process serving chaos campaign"),
    cmd("chaos", "<benchmark>", (1, 1),
        &["--seed", "--fault-rate", "--kill-pe", "--pes", "--iters", "--json", "--postmortem"],
        "deterministic fault campaign + recovery"),
    cmd("postmortem", "<dump>", (1, 1), &[], "render a flight-recorder dump"),
    cmd("serve", "", (0, 0),
        &["--addr", "--addr-file", "--jobs", "--queue", "--registry", "--quota",
          "--breaker-threshold", "--breaker-cooldown", "--seed", "--worker-kill", "--slow",
          "--disk-fail"],
        "long-running multi-tenant planner daemon"),
    cmd("client", "", (0, 0), &["--addr"], "JSONL stdin/stdout client for a daemon (needs --addr)"),
    cmd("bench report", "", (0, 0), &["--dir", "--tolerance-bp"], "BENCH_*.json trajectory + regression gate"),
    cmd("bench diff", "<a> <b>", (2, 2), &["--tolerance-bp"], "compare two bench reports"),
    cmd("check", "trace|metrics|prom <file>", (2, 2), &[], "validate an exported artifact's format"),
    cmd("plan export", "<benchmark>|--all", (0, 1),
        &["--all", "--zoo", "--pes", "--iters", "--out", "--dir", "--registry"],
        "export verified plan artifact(s)"),
    cmd("plan import", "<file>|--key <hex>", (0, 1), &["--out", "--registry", "--key", "--run"],
        "decode + verify-gate an artifact"),
    cmd("plan diff", "<a> <b>", (2, 2), &[], "compare two plan artifacts"),
    cmd("analyze", "[<harness>...]", (0, usize::MAX), &["--list", "--json", "--schedules", "--preemptions"],
        "model-check the concurrent serving path"),
];

/// The usage text, generated from [`COMMANDS`] and [`FLAGS`].
fn usage_text() -> String {
    let mut out = String::from("usage:\n");
    for command in COMMANDS {
        let call = format!("paraconv {} {}", command.name, command.args);
        let call = call.trim_end();
        if call.len() < 38 {
            out += &format!("  {call:<38}{}\n", command.about);
        } else {
            out += &format!("  {call}\n  {:<38}{}\n", "", command.about);
        }
        let mut line = String::from("     ");
        for flag in command.flags {
            if line.len() + flag.len() > 76 {
                out += &format!("{line}\n");
                line = String::from("     ");
            }
            line += &format!(" {flag}");
        }
        if !command.flags.is_empty() {
            out += &format!("{line}\n");
        }
    }
    out += "\noptions:\n";
    for Flag(name, _, value, help) in FLAGS {
        let head = format!("{name} {value}");
        let help = help.replace('\n', &format!("\n{:24}", ""));
        out += &format!("  {:<21} {help}\n", head.trim_end());
    }
    out
}

/// A parsed invocation: its positionals in order and every value
/// given per flag (none for a switch).
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<&'static str, Vec<String>>,
}

impl Args {
    /// Whether `flag` was given.
    fn on(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The last value given for `flag`.
    fn text(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag)?.last().map(String::as_str)
    }

    /// The last value given for a [`Kind::Count`] flag (validated by
    /// [`parse`]).
    fn num(&self, flag: &str) -> Option<u64> {
        self.text(flag)?.parse().ok()
    }

    /// The first positional; present whenever the arity requires it.
    fn name(&self) -> &str {
        self.positional.first().map_or("", String::as_str)
    }

    fn pes(&self) -> usize {
        self.num("--pes").map_or(16, |n| n as usize)
    }

    fn iters(&self) -> u64 {
        self.num("--iters").unwrap_or(50)
    }

    /// Every `--kill-pe`, in order.
    fn kills(&self) -> Vec<(u32, u64)> {
        self.flags.get("--kill-pe").map_or(Vec::new(), |v| {
            v.iter().filter_map(|k| kill_pe(k)).collect()
        })
    }
}

fn kill_pe(value: &str) -> Option<(u32, u64)> {
    let (pe, cycle) = value.split_once('@')?;
    Some((pe.parse().ok()?, cycle.parse().ok()?))
}

/// Finds the command `words` invoke, returning it with the words left
/// for [`parse`].
fn lookup(words: &[String]) -> Result<(&'static Command, &[String]), CliError> {
    let (first, rest) = words
        .split_first()
        .ok_or_else(|| usage("missing command"))?;
    for command in COMMANDS {
        let (head, verb) = command.name.split_once(' ').unwrap_or((command.name, ""));
        if head != first {
            continue;
        }
        if verb.is_empty() || (verb.starts_with("--") && rest.iter().any(|w| w == verb)) {
            return Ok((command, rest));
        }
        if let Some((word, tail)) = rest.split_first() {
            if word == verb {
                return Ok((command, tail));
            }
        }
    }
    let verbs: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|c| c.name.strip_prefix(first.as_str())?.strip_prefix(' '))
        .collect();
    Err(usage(if verbs.is_empty() {
        format!("unknown command `{first}`")
    } else {
        format!("{first} needs one of: {}", verbs.join(", "))
    }))
}

/// Reads `words` against `command`'s declared flags and arity.
fn parse(command: &Command, words: &[String]) -> Result<Args, CliError> {
    let mut args = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    let mut words = words.iter();
    while let Some(word) = words.next() {
        if !word.starts_with("--") {
            args.positional.push(word.clone());
            continue;
        }
        let Some(Flag(name, kind, value_name, _)) = FLAGS
            .iter()
            .find(|f| f.0 == word && command.flags.contains(&f.0))
        else {
            return Err(usage(format!(
                "unknown option `{word}` for `paraconv {}`",
                command.name
            )));
        };
        let values = args.flags.entry(*name).or_default();
        if let Switch = kind {
            continue;
        }
        let value = words
            .next()
            .ok_or_else(|| usage(format!("{name} needs a value")))?;
        match *kind {
            Count(min, max) => match value.parse::<u64>() {
                Ok(n) if n < min => return Err(usage(format!("{name} must be at least {min}"))),
                Ok(n) if n > max => return Err(usage(format!("{name} must be at most {max}"))),
                Ok(_) => {}
                Err(_) => return Err(usage(format!("bad {name} `{value}`"))),
            },
            Kill if kill_pe(value).is_none() => {
                return Err(usage(format!(
                    "bad {name} `{value}` (expected {value_name})"
                )))
            }
            _ => {}
        }
        values.push(value.clone());
    }
    let (min, max) = command.arity;
    if args.positional.len() < min {
        return Err(usage(format!(
            "`paraconv {}` needs {}",
            command.name, command.args
        )));
    }
    if let Some(extra) = args.positional.get(max) {
        return Err(usage(format!(
            "unexpected argument `{extra}` for `paraconv {}`",
            command.name
        )));
    }
    Ok(args)
}

fn run(words: &[String]) -> Result<(), CliError> {
    let (command, rest) = lookup(words)?;
    let args = parse(command, rest)?;
    match command.name {
        "list" => {
            println!("{:<16} {:>8} {:>7}", "benchmark", "vertices", "edges");
            for b in benchmarks::all() {
                println!("{:<16} {:>8} {:>7}", b.name(), b.vertices(), b.edges());
            }
            Ok(())
        }
        "show" => {
            let s = load(args.name())?.summary();
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
            print!("{}", load(args.name())?.to_dot());
            Ok(())
        }
        "run" => {
            let graph = load(args.name())?;
            start_observing(&args);
            let cfg = config(args.pes())?;
            let runner = ParaConv::new(cfg.clone());
            let result = runner
                .run(&graph, args.iters())
                .map_err(|e| e.to_string())?;
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
                &args,
                Some(paraconv::pim::plan_chrome_trace(
                    &graph,
                    &result.outcome.plan,
                    &cfg,
                )),
            )
        }
        "compare" => {
            let graph = load(args.name())?;
            start_observing(&args);
            let runner = ParaConv::new(config(args.pes())?);
            let cmp = runner
                .compare(&graph, args.iters())
                .map_err(|e| e.to_string())?;
            println!(
                "Para-CONV: {}   SPARTA: {}   IMP: {:.2}%   speedup: {:.2}x",
                cmp.paraconv.report.total_time,
                cmp.sparta.report.total_time,
                cmp.improvement_percent(),
                cmp.speedup()
            );
            export(&args, None)
        }
        "gantt" => {
            let graph = load(args.name())?;
            start_observing(&args);
            let cfg = config(args.pes())?;
            let result = ParaConv::new(cfg.clone())
                .run(&graph, args.iters())
                .map_err(|e| e.to_string())?;
            let window = args.num("--window").unwrap_or(60);
            print!(
                "{}",
                paraconv::pim::gantt(&graph, &result.outcome.plan, &cfg, 0, window)
            );
            export(
                &args,
                Some(paraconv::pim::plan_chrome_trace(
                    &graph,
                    &result.outcome.plan,
                    &cfg,
                )),
            )
        }
        "audit" => {
            let graph = load(args.name())?;
            start_observing(&args);
            let cfg = config(args.pes())?;
            let runner = ParaConv::new(cfg.clone());
            let result = runner
                .run(&graph, args.iters())
                .map_err(|e| e.to_string())?;
            let para = paraconv::pim::audit(&graph, &result.outcome.plan, &cfg, &result.report)
                .map_err(|e| format!("Para-CONV plan failed audit: {e}"))?;
            println!("Para-CONV plan: PASS");
            println!("{para}");
            let baseline = runner
                .run_baseline(&graph, args.iters())
                .map_err(|e| e.to_string())?;
            let sparta =
                paraconv::pim::audit(&graph, &baseline.outcome.plan, &cfg, &baseline.report)
                    .map_err(|e| format!("SPARTA plan failed audit: {e}"))?;
            println!();
            println!("SPARTA plan: PASS");
            println!("{sparta}");
            export(&args, None)
        }
        "verify" => {
            // No name (or `--all`) covers the suite; `--zoo` adds the
            // partitioned real CNNs either way.
            let named = args.positional.first();
            if named.is_some() && args.on("--all") {
                return Err(usage("--all cannot be combined with a benchmark name"));
            }
            let cfg = config(args.pes())?;
            let targets = targets(named, args.on("--zoo"))?;
            let runner = ParaConv::new(cfg.clone());
            for (name, graph) in &targets {
                let result = runner
                    .run(graph, args.iters())
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
                args.pes(),
                args.iters()
            );
            Ok(())
        }
        "table1" => {
            start_observing(&args);
            let quick = args.on("--quick");
            let mut cfg = if quick {
                experiments::ExperimentConfig::quick()
            } else {
                experiments::ExperimentConfig::default()
            };
            if args.on("--pes") {
                cfg.pe_counts = vec![args.pes()];
            }
            if let Some(iters) = args.num("--iters") {
                cfg.iterations = iters;
            }
            let suite = if quick {
                experiments::quick_suite()
            } else {
                experiments::full_suite()
            };
            let rows = experiments::table1::run(&cfg, &suite).map_err(|e| e.to_string())?;
            print!("{}", experiments::table1::render(&rows));
            export(&args, None)
        }
        "stats" => {
            let graph = load(args.name())?;
            let watch = args.num("--watch").unwrap_or(1);
            // `stats` exists to show metrics, so recording is always on.
            obs::reset();
            obs::enable();
            let runner = ParaConv::new(config(args.pes())?);
            for round in 0..watch {
                let cmp = runner
                    .compare(&graph, args.iters())
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
                if args.on("--prom") {
                    print!("{}", snapshot.to_prometheus());
                } else {
                    print!("{snapshot}");
                }
                if round + 1 < watch {
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
            }
            obs::disable();
            export(&args, None)
        }
        "chaos --serve" => serve_chaos_command(&args),
        "chaos" => chaos_command(&args),
        "postmortem" => postmortem_command(args.name()),
        "serve" => serve_command(&args),
        "client" => client_command(&args),
        "bench report" | "bench diff" => bench_command(command.name, &args),
        "check" => check_command(&args),
        "plan export" => plan_export(&args),
        "plan import" => plan_import(&args),
        "plan diff" => plan_diff(&args),
        "analyze" => analyze_command(&args),
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

/// `paraconv chaos <benchmark>`: a deterministic fault campaign with
/// fail-stop recovery, audited and verified.
fn chaos_command(args: &Args) -> Result<(), CliError> {
    let name = args.name();
    let graph = load(name)?;
    let seed = args.num("--seed").unwrap_or(0);
    let rate_bp = args.num("--fault-rate").unwrap_or(0) as u32;
    let kills = args.kills();
    let mut builder = FaultSpec::builder(seed).uniform_rate_bp(rate_bp);
    for &(pe, cycle) in &kills {
        builder = builder.kill_pe(pe, cycle);
    }
    let spec = builder
        .build()
        .map_err(|e| usage(format!("invalid fault campaign: {e}")))?;
    let (pes, iters) = (args.pes(), args.iters());
    let cfg = config(pes)?;
    obs::reset();
    obs::enable();
    // The flight recorder rides along on every campaign: when the run
    // dies it holds the last structured events and is dumped as a
    // content-hashed postmortem artifact.
    obs::flight_enable(obs::DEFAULT_FLIGHT_CAPACITY);
    let outcome = ParaConv::new(cfg)
        .with_audit(true)
        .with_verify(true)
        .run_chaos(&graph, iters, &spec);
    let result = match outcome {
        Ok(result) => result,
        Err(e) => {
            let reason = e.to_string();
            let path = args
                .text("--postmortem")
                .map_or_else(|| format!("{}.postmortem", slugify(name)), str::to_owned);
            let context = [
                ("benchmark", name.to_owned()),
                ("seed", seed.to_string()),
                ("fault_rate_bp", rate_bp.to_string()),
                ("kills", kills.len().to_string()),
                ("pes", pes.to_string()),
                ("iterations", iters.to_string()),
            ];
            write_postmortem(&path, reason.clone(), &context)?;
            obs::flight_disable();
            obs::disable();
            return Err(CliError::Runtime(format!(
                "{reason} (postmortem dumped to `{path}`)"
            )));
        }
    };
    obs::flight_disable();
    obs::disable();
    let f = &result.faults;
    if args.on("--json") {
        let failed: Vec<String> = result.failed_pes.iter().map(ToString::to_string).collect();
        println!("{{");
        println!("  \"benchmark\": \"{name}\",");
        println!("  \"seed\": {seed},");
        println!("  \"fault_rate_bp\": {rate_bp},");
        println!("  \"pes\": {pes},");
        println!("  \"active_pes\": {},", result.config.active_pes());
        println!("  \"iterations\": {iters},");
        println!("  \"replans\": {},", result.replans);
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
            "campaign: seed {seed}, rate {rate_bp} bp, {} kill(s)",
            spec.pe_kills().len()
        );
        println!(
            "recovery: {} replan(s), failed PEs {:?}, {} of {} PEs surviving",
            result.replans,
            result.failed_pes,
            result.config.active_pes(),
            result.config.num_pes()
        );
        println!(
            "faults:   {} injected ({} vault, {} congestion, {} corruption), {} retries",
            f.injected, f.vault_faults, f.congestion_events, f.corruptions, f.retries
        );
        println!(
            "timeline: planned {} -> achieved {} (+{} injected delay)",
            f.planned_makespan, f.achieved_makespan, f.injected_delay
        );
        println!("{}", result.report);
    }
    Ok(())
}

/// `paraconv analyze`: run the paraconv-analyze model-check harnesses
/// over the concurrent serving path. Exit 0 when every selected
/// harness explores its bounded state space cleanly, exit 1 when any
/// fails (the failing interleaving and its replayable schedule seed
/// are printed), exit 2 on a malformed invocation.
fn analyze_command(args: &Args) -> Result<(), CliError> {
    use paraconv::analyze::{find_harness, harnesses, ExploreOpts, Harness};

    let mut opts = ExploreOpts::default();
    if let Some(n) = args.num("--schedules") {
        opts.max_schedules = n as usize;
    }
    if let Some(n) = args.num("--preemptions") {
        opts.preemption_budget = n as usize;
    }
    let json = args.on("--json");

    if args.on("--list") {
        println!("{:<26} {:<8} about", "harness", "kind");
        for h in harnesses() {
            let kind = if h.seeded_bug { "seeded" } else { "passing" };
            println!("{:<26} {:<8} {}", h.name, kind, h.about);
        }
        return Ok(());
    }

    let selected: Vec<&Harness> = if args.positional.is_empty() {
        // The default gate: every harness that must pass. Seeded-bug
        // fixtures are opt-in by name (they exist to fail).
        harnesses().iter().filter(|h| !h.seeded_bug).collect()
    } else {
        args.positional
            .iter()
            .map(|n| {
                find_harness(n).ok_or_else(|| usage(format!("unknown harness `{n}`; try --list")))
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
fn postmortem_command(path: &str) -> Result<(), CliError> {
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
fn bench_command(name: &str, args: &Args) -> Result<(), CliError> {
    let tolerance_bp = args
        .num("--tolerance-bp")
        .unwrap_or(paraconv::bench_report::DEFAULT_TOLERANCE_BP);
    let report = if name == "bench report" {
        let dir = args.text("--dir").unwrap_or(".");
        let entries = paraconv::bench_report::load_series(std::path::Path::new(dir))
            .map_err(CliError::Runtime)?;
        let ids: Vec<String> = entries.iter().map(|e| e.bench_id.to_string()).collect();
        println!(
            "bench series: {} report(s) [{}], tolerance {:.1}%",
            entries.len(),
            ids.join(", "),
            tolerance_bp as f64 / 100.0
        );
        paraconv::bench_report::analyze(&entries, tolerance_bp)
    } else {
        let read = |path: &String| -> Result<paraconv::bench_report::BenchEntry, CliError> {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Runtime(format!("cannot read `{path}`: {e}")))?;
            paraconv::bench_report::BenchEntry::parse(path, &text).map_err(CliError::Runtime)
        };
        let [a_path, b_path] = args.positional.as_slice() else {
            return Err(usage("bench diff takes exactly two report files"));
        };
        println!(
            "bench diff: {a_path} -> {b_path}, tolerance {:.1}%",
            tolerance_bp as f64 / 100.0
        );
        paraconv::bench_report::diff(&read(a_path)?, &read(b_path)?, tolerance_bp)
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
fn check_command(args: &Args) -> Result<(), CliError> {
    let [kind, path] = args.positional.as_slice() else {
        return Err(usage("check takes a kind and one file"));
    };
    type Check = fn(&str) -> Result<usize, String>;
    let (check, what): (Check, &str) = match kind.as_str() {
        "trace" => (obs::check_trace, "trace event(s)"),
        "metrics" => (obs::check_metrics_jsonl, "metric line(s)"),
        "prom" => (obs::check_prometheus, "sample(s)"),
        other => return Err(usage(format!("unknown check kind `{other}`"))),
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read `{path}`: {e}")))?;
    let count = check(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: {count} {what} OK");
    Ok(())
}

/// The benchmark `named`, or the whole suite, plus the partitioned
/// model zoo when `zoo` is set.
fn targets(named: Option<&String>, zoo: bool) -> Result<Vec<(String, TaskGraph)>, CliError> {
    let mut targets: Vec<(String, TaskGraph)> = Vec::new();
    if let Some(name) = named {
        targets.push((name.clone(), load(name)?));
    } else {
        for b in benchmarks::all() {
            targets.push((b.name().to_owned(), b.graph().map_err(|e| e.to_string())?));
        }
    }
    if zoo {
        for (class, network) in &paraconv::cnn::zoo::all().map_err(|e| e.to_string())? {
            let graph =
                paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
                    .map_err(|e| e.to_string())?;
            targets.push((format!("{class}/{}", network.name()), graph));
        }
    }
    Ok(targets)
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
fn open_registry(args: &Args) -> Result<Option<Registry>, CliError> {
    args.text("--registry")
        .map(|dir| {
            Registry::open(dir)
                .map_err(|e| CliError::Runtime(format!("cannot open registry `{dir}`: {e}")))
        })
        .transpose()
}

fn plan_export(args: &Args) -> Result<(), CliError> {
    let named = args.positional.first();
    let (all, zoo) = (args.on("--all"), args.on("--zoo"));
    if named.is_none() && !all {
        return Err(usage("plan export needs a benchmark name or --all"));
    }
    if named.is_some() && (all || zoo) {
        return Err(usage(
            "--all/--zoo cannot be combined with a benchmark name",
        ));
    }
    let targets = targets(named, zoo)?;
    let cfg = config(args.pes())?;
    let policy = PlanPolicy {
        allocation: AllocationPolicy::DynamicProgram,
        iterations: args.iters(),
    };
    let registry = open_registry(args)?;
    let dir = args.text("--dir").unwrap_or("plans");
    if all {
        std::fs::create_dir_all(dir)
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
                    .schedule(&graph, policy.iterations)
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
        let path = if all {
            format!("{dir}/{}.plan", slugify(&name))
        } else {
            args.text("--out")
                .map_or_else(|| format!("{}.plan", slugify(&name)), str::to_owned)
        };
        std::fs::write(&path, &bytes)
            .map_err(|e| format!("cannot write artifact to `{path}`: {e}"))?;
        println!("{name}: {source}, key {key} -> {path}");
    }
    println!("{count} plan artifact(s) exported");
    Ok(())
}

fn plan_import(args: &Args) -> Result<(), CliError> {
    let bytes = match (args.positional.first(), args.text("--key")) {
        (Some(path), None) => std::fs::read(path)
            .map_err(|e| CliError::Runtime(format!("cannot read `{path}`: {e}")))?,
        (None, Some(key)) => {
            let registry = open_registry(args)?
                .ok_or_else(|| usage("--key needs --registry <dir> to fetch from"))?;
            registry
                .get(key)
                .map_err(|e| CliError::Runtime(e.to_string()))?
                .ok_or_else(|| CliError::Runtime(format!("key {key} not in registry")))?
        }
        (Some(_), Some(_)) => return Err(usage("plan import takes a file or --key, not both")),
        (None, None) => {
            return Err(usage(
                "plan import needs an artifact file or --registry/--key",
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

    if let Some(path) = args.text("--out") {
        std::fs::write(path, bundle.encode())
            .map_err(|e| format!("cannot write canonical artifact to `{path}`: {e}"))?;
    }
    if args.on("--run") {
        let report = paraconv::pim::simulate(&bundle.graph, &bundle.outcome.plan, &bundle.config)
            .map_err(|e| format!("simulation of the imported plan failed: {e}"))?;
        println!("{report}");
    }
    Ok(())
}

fn plan_diff(args: &Args) -> Result<(), CliError> {
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err(usage("plan diff takes exactly two artifact files"));
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

/// Writes the flight recorder and metrics snapshot as a
/// content-hashed postmortem artifact. Callers put only campaign
/// parameters in `context` — nothing host- or worker-count-dependent —
/// so the bytes are identical at every `PARACONV_JOBS` width.
fn write_postmortem(
    path: &str,
    reason: String,
    context: &[(&str, String)],
) -> Result<(), CliError> {
    let bundle = plan_registry::PostmortemBundle {
        reason,
        context: context
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
        events: obs::flight_events(),
        metrics: obs::snapshot(),
    };
    std::fs::write(path, bundle.encode())
        .map_err(|e| CliError::Runtime(format!("cannot write postmortem to `{path}`: {e}")))
}

/// Turns recording on (from a clean slate) when the invocation
/// requests any export.
fn start_observing(args: &Args) {
    if args.on("--trace") || args.on("--metrics") {
        obs::reset();
        obs::enable();
    }
}

/// Writes the requested observability artifacts and disables
/// recording. `plan_trace` carries the simulated plan timeline for
/// single-plan subcommands; phase spans are appended either way.
fn export(args: &Args, plan_trace: Option<obs::ChromeTrace>) -> Result<(), CliError> {
    if !(args.on("--trace") || args.on("--metrics")) {
        return Ok(());
    }
    obs::disable();
    if let Some(path) = args.text("--metrics") {
        let snapshot = obs::snapshot();
        std::fs::write(path, snapshot.to_jsonl())
            .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
    }
    if let Some(path) = args.text("--trace") {
        let mut trace = plan_trace.unwrap_or_default();
        trace.name_process(0, "pipeline");
        trace.push_spans(0, &obs::take_spans());
        std::fs::write(path, trace.to_json())
            .map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
    }
    Ok(())
}

fn load(name: &str) -> Result<TaskGraph, CliError> {
    let bench = benchmarks::by_name(name)
        .ok_or_else(|| usage(format!("unknown benchmark `{name}` (try `paraconv list`)")))?;
    bench.graph().map_err(|e| CliError::Runtime(e.to_string()))
}

fn config(pes: usize) -> Result<PimConfig, CliError> {
    PimConfig::neurocube(pes).map_err(|e| usage(e.to_string()))
}

/// The engine config `serve` and `chaos --serve` ask for, injecting
/// the given worker-kill, slow-request and disk-fail rates.
fn serve_config(args: &Args, [kill, slow, disk]: [u32; 3]) -> Result<ServeConfig, CliError> {
    let fault = if kill > 0 || slow > 0 || disk > 0 {
        Some(
            FaultSpec::builder(args.num("--seed").unwrap_or(0))
                .worker_kill_bp(kill)
                .slow_request_bp(slow)
                .cache_write_fail_bp(disk)
                .build()
                .map_err(|e| usage(e.to_string()))?,
        )
    } else {
        None
    };
    let defaults = ServeConfig::default();
    Ok(ServeConfig {
        jobs: args.num("--jobs").map_or(defaults.jobs, |n| n as usize),
        queue_capacity: args
            .num("--queue")
            .map_or(defaults.queue_capacity, |n| n as usize),
        registry_path: args.text("--registry").map(Into::into),
        quota: args.num("--quota").unwrap_or(defaults.quota),
        breaker_threshold: args
            .num("--breaker-threshold")
            .unwrap_or(defaults.breaker_threshold),
        breaker_cooldown: args
            .num("--breaker-cooldown")
            .unwrap_or(defaults.breaker_cooldown),
        fault,
    })
}

/// The `--worker-kill`, `--slow` and `--disk-fail` rates.
fn serve_fault_rates(args: &Args) -> [u32; 3] {
    ["--worker-kill", "--slow", "--disk-fail"].map(|f| args.num(f).unwrap_or(0) as u32)
}

/// `paraconv serve`: bind, announce the address, park until a client
/// drains the daemon, then print the final counters.
fn serve_command(args: &Args) -> Result<(), CliError> {
    obs::reset();
    obs::enable();
    let handle = paraconv::serve::daemon::serve(
        args.text("--addr").unwrap_or("127.0.0.1:0"),
        serve_config(args, serve_fault_rates(args))?,
    )
    .map_err(|e| CliError::Runtime(e.to_string()))?;
    let addr = handle.addr();
    if let Some(path) = args.text("--addr-file") {
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
fn client_command(args: &Args) -> Result<(), CliError> {
    use std::io::{BufRead, Write};
    let addr = args
        .text("--addr")
        .ok_or_else(|| usage("client needs --addr <host:port>"))?;
    let stream = std::net::TcpStream::connect(addr)
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
fn serve_chaos_command(args: &Args) -> Result<(), CliError> {
    use paraconv::serve::{ServeCore, ServeStatus, Submission};
    use std::sync::{Arc, Mutex};

    let seed = args.num("--seed").unwrap_or(0);
    let requests = args.num("--requests").unwrap_or(512);
    let clients = args.num("--clients").unwrap_or(8);
    // A chaos campaign with no faults proves nothing: default the
    // injection rates up when the user did not pin them.
    let rates = match serve_fault_rates(args) {
        [0, 0, 0] => [500, 200, 300],
        pinned => pinned,
    };
    let [worker_kill_bp, slow_bp, disk_fail_bp] = rates;
    let mut config = serve_config(args, rates)?;
    let temp_registry = config.registry_path.is_none();
    if temp_registry {
        config.registry_path = Some(std::env::temp_dir().join(format!(
            "paraconv-serve-chaos-{}-{seed}",
            std::process::id()
        )));
    }
    let registry = config.registry_path.clone();

    obs::reset();
    obs::enable();
    // The serving path records every injected worker kill into the
    // flight recorder; keep it on for the whole campaign so the
    // optional postmortem dump carries the injected failures.
    obs::flight_enable(obs::DEFAULT_FLIGHT_CAPACITY);
    let core = Arc::new(ServeCore::new(config).map_err(|e| CliError::Runtime(e.to_string()))?);
    core.start();

    let benches = ["cat", "car"];
    let responses: Arc<Mutex<Vec<paraconv::serve::ServeResponse>>> =
        Arc::new(Mutex::new(Vec::new()));
    // Exactly `requests` submissions: the remainder goes one each to
    // the first clients.
    let (share, extra) = (requests / clients, requests % clients);
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let core = Arc::clone(&core);
            let responses = Arc::clone(&responses);
            let count = share + u64::from(c < extra);
            std::thread::spawn(move || {
                for r in 0..count {
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
    let mut violations: Vec<String> = Vec::new();
    if responses.len() as u64 != requests {
        violations.push(format!(
            "submitted {requests} requests but saw {} responses",
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
    if args.on("--json") {
        println!("{{");
        println!("  \"seed\": {seed},");
        report("requests", requests);
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
        let per_client = if extra == 0 {
            share.to_string()
        } else {
            format!("{share}-{}", share + 1)
        };
        println!(
            "campaign: seed {seed}, {clients} clients x {per_client} requests, \
             kill {worker_kill_bp} bp, slow {slow_bp} bp, disk-fail {disk_fail_bp} bp"
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
    if let Some(path) = args.text("--postmortem") {
        let reason = format!(
            "serving chaos campaign: survived {} injected worker kill(s), \
             {} slow injection(s), {} violation(s)",
            stats.worker_kills,
            stats.slow_injected,
            violations.len()
        );
        let context = [
            ("campaign", "chaos --serve".to_owned()),
            ("seed", seed.to_string()),
            ("requests", requests.to_string()),
            ("clients", clients.to_string()),
            ("worker_kill_bp", worker_kill_bp.to_string()),
            ("slow_bp", slow_bp.to_string()),
            ("disk_fail_bp", disk_fail_bp.to_string()),
        ];
        write_postmortem(path, reason, &context)?;
        println!("postmortem: campaign dumped to `{path}`");
    }
    obs::flight_disable();

    if temp_registry {
        if let Some(dir) = &registry {
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
