//! `serve-mix`: an open loop of mostly cache hits over a warmed hot
//! set, with a small steady share of never-seen keys. A run alternates
//! saturating steps, which measure the hit path's capacity, with
//! reference steps, which offer Poisson traffic at a fixed rate and time
//! every request from its due send time.

use std::time::Instant;

use paraconv::serve::{ServeResponse, ServeStatus};

use crate::checks::{check_conservation, check_keys, Graphs};
use crate::client::{line_for, open_loop, Conn, Pacing, Server, Timed};
use crate::gen::{self, Req};
use crate::report::{Opts, Report};
use crate::stats::quantile;

/// Set-ups timed before each round, on spare daemons that are shut
/// down again; with the run's own set-up, the median is reported.
const SETUPS_PER_ROUND: usize = 5;

/// Saturating and reference steps alternate this many times, each
/// taking an equal share of the run. The host's speed drifts over
/// seconds, so both figures sample the whole run rather than one half.
const ROUNDS: usize = 3;

/// Offered rate of the reference steps, per second: about 0.3 × the hit
/// path's capacity on the reference host (median 4700–5500/s over the
/// runs that defined the benchmark). Fixed rather than derived from the
/// run's own capacity, so that a change which speeds up the hit path
/// shows as lower latency at the same load, and so that the capacity's
/// run-to-run noise does not move the latency through the rate.
pub const REF_RATE: f64 = 1500.0;

/// Arrivals drawn for the saturating step, per second: far above what
/// the daemon serves, so the pipeline never runs dry.
const SATURATION_OFFER: f64 = 20_000.0;

/// Width of the windows the saturating step's completion rate is taken
/// over.
const WINDOW_S: f64 = 0.25;

/// Answered requests, each with what it asked for.
pub type Sent = Vec<(Req, ServeResponse)>;

fn sent(answered: &[Timed]) -> Sent {
    answered
        .iter()
        .map(|t| (t.arrival.req, t.response.clone()))
        .collect()
}

/// Plans every hot key once over `conns`, so that later requests for
/// them are hits.
///
/// # Errors
///
/// On a socket failure, or a warm-up request not planned afresh.
pub fn warm(conns: &mut [Conn], hot: &[Req]) -> Result<(), String> {
    for (i, req) in hot.iter().enumerate() {
        let conn = &mut conns[i % conns.len()];
        let (response, _) = conn.call(&line_for(req, &format!("w{i}"), 0))?;
        if response.status != ServeStatus::Ok || response.cached != Some(false) {
            return Err(format!(
                "warm-up of {req:?} answered {}",
                response.to_json()
            ));
        }
    }
    Ok(())
}

/// Starts a daemon on a fresh registry, opens one connection per core
/// and warms the hot set.
///
/// # Errors
///
/// On a set-up failure.
fn setup(opts: &Opts, name: &str, hot: &[Req]) -> Result<(Server, Vec<Conn>, Graphs, f64), String> {
    let start = Instant::now();
    let graphs = Graphs::all()?;
    let server = Server::start(&opts.work.join(name), opts.jobs)?;
    let mut conns = (0..opts.jobs)
        .map(|_| Conn::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    warm(&mut conns, hot)?;
    Ok((server, conns, graphs, start.elapsed().as_secs_f64()))
}

/// Saturates the daemon with hot-set hits for `seconds`, keeping a full
/// pipeline on every connection, and returns the completion rate of
/// every [`WINDOW_S`] window after the first (which the pipeline spends
/// filling). The median over a run's windows is its capacity, which a
/// short stall of the host does not move.
///
/// # Errors
///
/// On a socket failure.
fn saturate(
    seed: u64,
    step: u64,
    conns: Vec<Conn>,
    hot: &[Req],
    seconds: f64,
) -> Result<(Vec<f64>, Sent, Vec<Conn>), String> {
    let mut no_fresh = 0;
    let arrivals = gen::arrivals(
        seed,
        step,
        SATURATION_OFFER,
        seconds,
        hot,
        &[],
        &mut no_fresh,
    );
    let (answered, conns) = open_loop(conns, &arrivals, Pacing::Saturate { until_s: seconds })?;
    let mut windows = vec![0u32; (seconds / WINDOW_S) as usize];
    for t in answered
        .iter()
        .filter(|t| t.response.status == ServeStatus::Ok)
    {
        let done = t.arrival.due_s + t.latency_s;
        if let Some(w) = windows.get_mut((done / WINDOW_S) as usize) {
            *w += 1;
        }
    }
    let rates = windows
        .iter()
        .skip(1)
        .map(|&n| f64::from(n) / WINDOW_S)
        .collect();
    Ok((rates, sent(&answered), conns))
}

/// Runs the workload untraced and checks its outputs.
///
/// # Errors
///
/// On a set-up failure or a failed check.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let hot = gen::hot_set(opts.seed);
    let fresh = gen::fresh_stream(opts.seed);
    let (server, mut conns, mut graphs, secs) = setup(opts, "serve", &hot)?;
    let mut setups = vec![secs];

    let step_s = opts.seconds / (2 * ROUNDS) as f64;
    let mut windows = Vec::new();
    let mut checked = Sent::new();
    let mut answered = Vec::new();
    let mut offered = 0;
    let mut next_fresh = 0;
    for round in 0..ROUNDS as u64 {
        // Set-up is timed between the steps, like the steps themselves
        // spread over the run, because the host's speed drifts.
        for n in 0..SETUPS_PER_ROUND {
            let (spare, spare_conns, _, secs) = setup(opts, &format!("spare-{round}-{n}"), &hot)?;
            setups.push(secs);
            drop(spare_conns);
            check_conservation(&spare.shutdown())?;
        }
        let (rates, saturated, c) = saturate(opts.seed, 2 * round + 1, conns, &hot, step_s)?;
        windows.extend(rates);
        checked.extend(saturated);
        let arrivals = gen::arrivals(
            opts.seed,
            2 * round,
            REF_RATE,
            step_s,
            &hot,
            &fresh,
            &mut next_fresh,
        );
        offered += arrivals.len();
        let (timed, c) = open_loop(c, &arrivals, Pacing::Due)?;
        checked.extend(sent(&timed));
        answered.extend(timed);
        conns = c;
    }
    drop(conns);
    let stats = server.shutdown();
    check_conservation(&stats)?;
    let keys = check_keys(
        checked.iter().map(|(r, s)| (r, s)),
        &mut graphs,
        opts.inject,
    )?;
    let capacity = quantile(&windows, 0.5)
        .filter(|c| *c > 0.0)
        .ok_or("serve-mix: no saturating window was served; a run needs at least 3 s")?;

    let ok: Vec<&Timed> = answered
        .iter()
        .filter(|t| t.response.status == ServeStatus::Ok)
        .collect();
    let ms = |fresh: bool| -> Vec<f64> {
        ok.iter()
            .filter(|t| t.arrival.fresh == fresh)
            .map(|t| t.latency_s * 1e3)
            .collect()
    };
    let hits_ms = ms(false);
    let late_ms: Vec<f64> = answered.iter().map(|t| t.late_s * 1e3).collect();
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(f64::NAN);
    eprintln!(
        "serve-mix: capacity {capacity:.0}/s; at {REF_RATE:.0}/s offered, {} sent, {} ok, \
         hit p50 {:.3} ms, fresh p50 {:.2} ms ({} fresh), generator late p50 {:.3} ms p99 {:.3} ms; \
         {keys} keys checked, engine counters conserved",
        offered,
        ok.len(),
        q(&hits_ms, 0.5),
        q(&ms(true), 0.5),
        ms(true).len(),
        q(&late_ms, 0.5),
        q(&late_ms, 0.99),
    );

    let attempted = offered as u64;
    let mut report = Report {
        attempted,
        failed: attempted - ok.len() as u64,
        ..Report::default()
    };
    report.push_end_to_end(&hits_ms, capacity, &setups)?;
    Ok(report)
}
