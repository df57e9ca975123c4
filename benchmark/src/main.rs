//! `pegbench` — the repo's one end-to-end + per-layer benchmark.
//!
//! ```text
//! pegbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! pegbench [--workload W] [--seed N] [--seconds S] [--smoke] [--runs N] [--check-repeat]
//!                                                          the suite: results.json + trace.json
//! pegbench compare A.json B.json                           two results.json side by side
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod check;
mod cluster;
mod layers;
mod report;
mod requests;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;

use pegwire::{obj, Json};
use report::WorkloadRuns;
use run::RunConfig;
use spec::{Workload, DEFAULT_SECONDS, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: pegbench [--workload W] [--seed N] [--seconds S] [--smoke] \
[--trace 0|1] [--runs N] [--check-repeat] [--out-dir DIR] [--detail FILE] | pegbench compare A.json B.json";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    smoke: bool,
    /// `Some` selects a single run; the suite leaves it out.
    trace: Option<bool>,
    runs: usize,
    check_repeat: bool,
    out_dir: PathBuf,
    detail: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        trace: None,
        runs: 1,
        check_repeat: false,
        out_dir: PathBuf::from("benchmark/out"),
        detail: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--runs" => {
                parsed.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if parsed.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--smoke" => parsed.smoke = true,
            "--check-repeat" => parsed.check_repeat = true,
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            "--detail" => parsed.detail = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Confines this process — the servers, their pools and the clients, all
/// threads it will start — to one CPU, the lowest it may run on.
///
/// The 2-vCPU container this benchmark is gated on runs, for minutes at a
/// time, as if both vCPUs shared one core: whatever two threads do at
/// once (the parallel index build of every set-up, the `update_graph`
/// rebuild, two clients) then takes half as long again — `setup_s` read
/// 0.26 s or 0.39 s — while one thread at a time is not slowed. On one
/// CPU the same set-up reads 0.39 s in either state. So a run measures
/// what one core does; nothing here can show a multi-core speed-up.
#[cfg(target_os = "linux")]
fn confine_to_one_cpu() -> Result<usize, String> {
    // glibc's cpu_set_t: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable mask of the `size` bytes passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let (word, bits) =
        allowed.iter().enumerate().find(|(_, w)| **w != 0).ok_or("empty affinity mask")?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: `one` is a live mask of the `size` bytes passed. It changes
    // the calling thread only — the only thread this early in `main`; the
    // threads started later inherit the mask.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
fn confine_to_one_cpu() -> Result<usize, String> {
    Err("not supported on this platform".to_string())
}

/// One run of one workload. The last line of standard output is the
/// contract's result object; a wrong or failed answer also makes the
/// exit code non-zero.
fn single_run(args: &Args, workload: Workload, traced: bool) -> Result<ExitCode, String> {
    if let Err(e) = confine_to_one_cpu() {
        eprintln!("pegbench: running on every CPU, timings will be less steady ({e})");
    }
    let cfg = RunConfig { workload, seed: args.seed, seconds: args.seconds, smoke: args.smoke };
    let record = if traced { run::trace(&cfg) } else { run::measure(&cfg) }?;
    if let Some(rec) = &record.trace {
        let path = args.out_dir.join(format!("trace-{}.json", workload.name()));
        write_file(&path, &rec.to_json().to_string())?;
    }
    if let Some(path) = &args.detail {
        write_file(path, &report::detail_json(&cfg, traced, &record).to_string())?;
    }
    print!("{}", report::run_table(&cfg, &record));
    println!("{}", report::result_line(&record));
    Ok(if record.failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn provenance(args: &Args, runs: usize) -> Json {
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let bounds = END_TO_END.iter().fold(obj(), |o, m| o.field(m.name, m.bound)).build();
    obj()
        .field("commit", command_line("git", &["rev-parse", "HEAD"]))
        .field("rustc", command_line("rustc", &["-V"]))
        .field("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()))
        .field("cpus_per_run", 1usize)
        .field(
            "load_average_1m",
            load.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()).unwrap_or(f64::NAN),
        )
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("smoke", args.smoke)
        .field("runs_per_workload", runs)
        .field("bounds", bounds)
        .build()
}

/// The suite: every selected workload, each run in a child process of
/// its own (so `peak_rss_mb` is that run's and no server thread is
/// shared), `runs` untraced runs and the traced run, then the tables,
/// `results.json` and `trace.json`.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let runs = if args.check_repeat { 2 } else { args.runs };
    let traced_runs = if args.check_repeat { 2 } else { 1 };
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let parts = args.out_dir.join("parts");
    let provenance = provenance(args, runs);
    let selected: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    // One run as a child process; its detail record, and whether it passed.
    let run_child =
        |workload: Workload, traced: bool, k: usize| -> Result<(Option<Json>, bool), String> {
            let detail = parts.join(format!("{}-{}-{k}.json", workload.name(), u8::from(traced)));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name(), "--trace", if traced { "1" } else { "0" }])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .arg("--out-dir")
                .arg(&parts)
                .arg("--detail")
                .arg(&detail);
            if args.smoke {
                child.arg("--smoke");
            }
            let output = child.output().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !output.status.success() {
                eprint!("{}", String::from_utf8_lossy(&output.stdout));
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
            }
            Ok((read_json(&detail).ok(), output.status.success()))
        };
    let mut all = Vec::new();
    let mut ok = true;
    for &workload in &selected {
        let mut record = WorkloadRuns { workload, untraced: Vec::new(), traced: Vec::new() };
        for (traced, k) in (0..runs).map(|k| (false, k)).chain((0..traced_runs).map(|k| (true, k)))
        {
            let kind = if traced { "traced" } else { "untraced" };
            eprintln!("pegbench: {} {kind} run {k}", workload.name());
            let (detail, passed) = run_child(workload, traced, k)?;
            ok &= passed;
            if traced { &mut record.traced } else { &mut record.untraced }.extend(detail);
        }
        all.push(record);
    }

    let results = report::results_json(provenance, &all);
    print!("{}", report::suite_tables(&results));
    write_file(&args.out_dir.join("results.json"), &report::pretty(&results))?;
    // trace.json: each workload's spans under its name.
    let mut trace = String::from("{");
    for (i, w) in selected.iter().enumerate() {
        let spans = std::fs::read_to_string(parts.join(format!("trace-{}.json", w.name())))
            .unwrap_or_else(|_| "[]".to_string());
        trace.push_str(&format!(
            "{}\n{}: {spans}",
            if i > 0 { "," } else { "" },
            Json::from(w.name())
        ));
    }
    trace.push_str("\n}\n");
    write_file(&args.out_dir.join("trace.json"), &trace)?;
    std::fs::remove_dir_all(&parts).map_err(|e| format!("remove {}: {e}", parts.display()))?;
    println!("\nwrote {0}/results.json and {0}/trace.json", args.out_dir.display());

    if args.check_repeat {
        let (text, agreed) = report::check_repeat(&all);
        print!("{text}");
        ok &= agreed;
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = argv.as_slice() else { return Err(USAGE.to_string()) };
        print!("{}", report::compare(&read_json(Path::new(base))?, &read_json(Path::new(new))?));
        return Ok(ExitCode::SUCCESS);
    }
    let args = parse_args(&argv)?;
    match (args.trace, args.workload) {
        (Some(traced), Some(workload)) => single_run(&args, workload, traced),
        (Some(_), None) => Err("--trace selects a single run and needs --workload".to_string()),
        (None, _) => suite(&args),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("pegbench: {e}");
        ExitCode::from(2)
    })
}
