//! `cold-plan`: a closed loop of distinct keys against a daemon on a
//! fresh registry, so every request is a miss that schedules, verifies,
//! encodes and stores a plan.

use std::time::Instant;

use crate::checks::{check_artifacts, check_conservation, check_keys, Graphs};
use crate::client::{closed_loop, Answer, Conn, Server};
use crate::gen::{self, Req, Rng};
use crate::report::{Opts, Report};

/// Rounds per daemon lifetime in the timed loop.
const SEGMENT_ROUNDS: usize = 4;

/// Stored artifacts re-read, decoded and re-verified per run.
const ARTIFACT_SAMPLE: usize = 6;

/// Largest graph (in IPRs) whose artifacts the sample draws from.
/// `decode` time grows faster than linearly with artifact size (about
/// 0.1 s for `character-1` but 28 s for `protein` at 50 iterations on
/// the reference host), so the sample stays on the five smallest
/// benchmarks to keep a run within its time limit.
const SAMPLE_MAX_EDGES: usize = 130;

/// Generates the graphs the checks recompute keys from, starts a
/// daemon on a fresh registry and opens one connection per core: the
/// set-up a cold-plan run pays before its first request, and again at
/// every restart. Timing every restart makes the reported median sample
/// the whole run, not only its first, faster, moments.
fn setup(opts: &Opts, name: &str) -> Result<(Server, Vec<Conn>, Graphs, f64), String> {
    let start = Instant::now();
    let graphs = Graphs::all()?;
    let server = Server::start(&opts.work.join(name), opts.jobs)?;
    let conns = (0..opts.jobs)
        .map(|_| Conn::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((server, conns, graphs, start.elapsed().as_secs_f64()))
}

/// Runs the workload untraced and checks its outputs.
///
/// # Errors
///
/// On a set-up failure or a failed check.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let stream = gen::cold_stream(opts.seed);
    let (mut server, mut conns, mut graphs, secs) = setup(opts, "cold-0")?;
    let mut setups = vec![secs];

    // The daemon's memory cache never evicts, so a long closed loop of
    // distinct keys grows it without bound. The loop therefore runs in
    // segments of a few rounds, each against a fresh daemon on a fresh
    // registry; the restarts between segments are set-ups, timed apart
    // from the loop.
    let mut answers: Vec<Answer> = Vec::new();
    let mut wall = 0.0;
    let mut stats = Vec::new();
    let mut segment = 0;
    let (dir, last_segment) = loop {
        let offset = answers.len();
        let end = (offset + SEGMENT_ROUNDS * gen::ROUND).min(stream.len());
        let (mut got, secs) =
            closed_loop(conns, &stream[offset..end], gen::ROUND, opts.seconds - wall)?;
        for a in &mut got {
            a.index += offset;
        }
        answers.extend(got);
        wall += secs;
        let dir = server.dir().to_path_buf();
        stats.push(server.shutdown());
        if wall >= opts.seconds || answers.len() >= stream.len() {
            break (dir, offset);
        }
        segment += 1;
        let secs;
        (server, conns, _, secs) = setup(opts, &format!("cold-{segment}"))?;
        setups.push(secs);
    };
    for s in &stats {
        check_conservation(s)?;
    }
    let pairs: Vec<(&Req, _)> = answers
        .iter()
        .map(|a| (&stream[a.index], &a.response))
        .collect();
    check_keys(pairs.iter().copied(), &mut graphs, opts.inject)?;
    let mut rng = Rng::new(opts.seed, 9);
    let mut keys: Vec<String> = answers[last_segment..]
        .iter()
        .filter(|a| crate::checks::edges(stream[a.index].benchmark) <= SAMPLE_MAX_EDGES)
        .filter_map(|a| a.response.key.clone())
        .collect();
    rng.shuffle(&mut keys);
    keys.truncate(ARTIFACT_SAMPLE);
    check_artifacts(&dir, &keys, opts.inject)?;
    eprintln!(
        "cold-plan: {} plans in {wall:.2}s, keys and {} artifacts checked",
        answers.len(),
        keys.len()
    );

    let ok: Vec<f64> = answers
        .iter()
        .filter(|a| a.response.key.is_some())
        .map(|a| a.latency_s * 1e3)
        .collect();
    let attempted = answers.len() as u64;
    let failed = attempted - ok.len() as u64;
    let mut report = Report {
        attempted,
        failed,
        ..Report::default()
    };
    report.push_end_to_end(&ok, ok.len() as f64 / wall, &setups)?;
    Ok(report)
}
