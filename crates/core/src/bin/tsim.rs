//! `tsim` — command-line front end to the terasim co-simulation framework.
//!
//! ```text
//! tsim run    --mimo 8 --precision 16bCDotp --cores 64 --backend fast|cycle
//! tsim symbol --mimo 4 --precision 16bHalf --nsc 128
//! tsim ber    --mimo 4 --mod 16qam --channel awgn --detector 16bCDotp --snr 6,10,14,18
//! tsim info   --cores 1024
//! ```
//!
//! Exit status: 0 on success, 1 when a run fails, 2 on a bad command line
//! (one error line naming the flag and its legal values).

use std::error::Error;
use std::process::ExitCode;

use terasim::experiments::{
    self, BatchConfig, CycleEngine, EngineOptions, Job, ParallelConfig, ParallelScenario, SymbolScenario,
};
use terasim::DetectorKind;
use terasim_kernels::{MmseKernel, Precision};
use terasim_phy::{ChannelKind, Mimo, Modulation};
use terasim_terapool::Topology;

const USAGE: &str = "usage:\n  tsim run    --mimo <4|8|16|32> --precision <name> [--cores N] [--backend fast|cycle] [--threads T] [--seed S] [--fusion on|off] [--epochs fixed|adaptive]\n  tsim symbol --mimo <N> --precision <name> [--nsc N] [--seed S] [--fusion on|off] [--epochs fixed|adaptive]\n  tsim ber    --mimo <N> --detector <64b|name|iss:name> [--mod 16qam|64qam] [--channel awgn|rayleigh] [--snr a,b,c] [--errors E]\n  tsim info   [--cores N]\n\nprecisions: 16bHalf 16bwDotp 16bCDotp 8bQuarter 8bwDotp";

const MIMO_SIZES: &str = "4, 8, 16 or 32";
const CORE_COUNTS: &str = "a power of two in 8..=1024";

/// Why `tsim` stopped: a bad command line (exit 2) or a failed run
/// (exit 1).
enum Failure {
    Usage(String),
    Run(Box<dyn Error>),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(format!("error: {msg}"))
    }
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    /// The flag's value as a `u32`, or `default` when absent. A value
    /// that is present but malformed is a hard error naming the flag —
    /// never silently replaced by the default.
    fn u32(&self, name: &str, default: u32) -> Result<u32, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| format!("invalid value for {name}: {v:?} is not an unsigned integer"))
            }
        }
    }

    /// As [`u32`](Self::u32), rejecting values outside the legal set
    /// `legal`, described as `expected` in the error.
    fn legal(
        &self,
        name: &str,
        default: u32,
        legal: impl Fn(u32) -> bool,
        expected: &str,
    ) -> Result<u32, String> {
        let v = self.u32(name, default)?;
        if legal(v) {
            Ok(v)
        } else {
            Err(format!("invalid value for {name}: {v} (expected {expected})"))
        }
    }

    fn engine(&self) -> Result<EngineOptions, String> {
        EngineOptions::parse(self.value("--fusion"), self.value("--epochs"))
    }
}

/// Parses a precision name given as the value of flag `name`.
fn precision(name: &str, v: &str) -> Result<Precision, String> {
    Precision::ALL.into_iter().find(|p| p.paper_name().eq_ignore_ascii_case(v)).ok_or_else(|| {
        let names: Vec<&str> = Precision::ALL.iter().map(|p| p.paper_name()).collect();
        format!("invalid value for {name}: {v:?} (expected {})", names.join("|"))
    })
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("symbol") => cmd_symbol(&args),
        Some("ber") => cmd_ber(&args),
        Some("info") => cmd_info(&args),
        _ => Err(Failure::Usage(USAGE.to_string())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(args: &Args) -> Result<(), Failure> {
    let n = args.legal("--mimo", 4, MmseKernel::supports_n, MIMO_SIZES)?;
    let precision = precision("--precision", args.value("--precision").unwrap_or("16bCDotp"))?;
    let config = ParallelConfig {
        cores: args.legal("--cores", 64, Topology::supports_cores, CORE_COUNTS)?,
        n,
        precision,
        seed: u64::from(args.u32("--seed", 1)?),
        unroll: args.legal("--unroll", 2, |u| u >= 1, "at least 1")?,
    };
    let engine = args.engine()?;
    match args.value("--backend").unwrap_or("fast") {
        "fast" => {
            let threads = args.legal("--threads", 2, |t| t >= 1, "at least 1")? as usize;
            let out = ParallelScenario::prepare_with(&config, engine)
                .and_then(|s| s.run_fast_seeded(threads, config.seed))
                .map_err(Failure::Run)?;
            println!(
                "fast: {} cores x {}x{} {} ({engine}) -> {} instructions, ~{} cluster cycles, {:.2} MIPS, wall {:?}, verified={}",
                config.cores, n, n, precision, out.instructions, out.cluster_cycles, out.mips, out.wall, out.verified
            );
        }
        "cycle" => {
            let out = ParallelScenario::prepare_with(&config, engine)
                .and_then(|s| s.run_cycle_seeded(CycleEngine::EventDriven, config.seed))
                .map_err(Failure::Run)?;
            let b = out.breakdown;
            println!(
                "cycle: {} cores x {}x{} {} ({engine}) -> {} cycles (instr {} raw {} lsu {} ins {} acc {} wfi {}), wall {:?}, verified={}",
                config.cores,
                n,
                n,
                precision,
                out.cycles,
                b.instructions,
                b.stall_raw,
                b.stall_lsu,
                b.stall_ins,
                b.stall_acc,
                b.stall_wfi,
                out.wall,
                out.verified
            );
        }
        other => return Err(format!("invalid value for --backend: {other:?} (expected fast|cycle)").into()),
    }
    Ok(())
}

fn cmd_symbol(args: &Args) -> Result<(), Failure> {
    let config = BatchConfig {
        n: args.legal("--mimo", 4, MmseKernel::supports_n, MIMO_SIZES)?,
        precision: precision("--precision", args.value("--precision").unwrap_or("16bCDotp"))?,
        nsc: args.legal("--nsc", 128, |n| n >= 1, "at least 1")?,
        seed: u64::from(args.u32("--seed", 1)?),
        unroll: args.legal("--unroll", 2, |u| u >= 1, "at least 1")?,
    };
    let out = SymbolScenario::prepare_with(&config, args.engine()?)
        .and_then(|s| Ok(s.symbol(Job::new(config.seed))?))
        .map_err(Failure::Run)?;
    println!(
        "symbol: NSC={} {}x{} {} -> {} instructions, {} Snitch cycles, {:.2} MIPS, wall {:?}, verified={}",
        config.nsc,
        config.n,
        config.n,
        config.precision,
        out.instructions,
        out.cycles,
        out.mips,
        out.wall,
        out.verified
    );
    Ok(())
}

fn cmd_ber(args: &Args) -> Result<(), Failure> {
    let detector = match args.value("--detector").unwrap_or("64b") {
        "64b" | "64bDouble" => DetectorKind::Reference64,
        s => match s.strip_prefix("iss:") {
            Some(p) => DetectorKind::Iss(precision("--detector", p)?),
            None => DetectorKind::Native(precision("--detector", s)?),
        },
    };
    // The ISS detector runs the generated kernel; the host models take
    // any size.
    let n = match detector {
        DetectorKind::Iss(_) => args.legal("--mimo", 4, MmseKernel::supports_n, MIMO_SIZES)?,
        _ => args.legal("--mimo", 4, |n| n >= 1, "at least 1")?,
    } as usize;
    let modulation = match args.value("--mod").unwrap_or("16qam") {
        "qpsk" => Modulation::Qpsk,
        "16qam" => Modulation::Qam16,
        "64qam" => Modulation::Qam64,
        other => return Err(format!("invalid value for --mod: {other:?} (expected qpsk|16qam|64qam)").into()),
    };
    let channel = match args.value("--channel").unwrap_or("awgn") {
        "awgn" => ChannelKind::Awgn,
        "rayleigh" => ChannelKind::Rayleigh,
        other => {
            return Err(format!("invalid value for --channel: {other:?} (expected awgn|rayleigh)").into())
        }
    };
    let snrs = args
        .value("--snr")
        .unwrap_or("6,10,14,18")
        .split(',')
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("invalid value for --snr: {:?} is not a number", part.trim()))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let scenario = Mimo { n_tx: n, n_rx: n, modulation, channel };
    let errors = u64::from(args.legal("--errors", 500, |e| e >= 1, "at least 1")?);
    println!("BER {}x{} {} {} — {}", n, n, modulation.name(), channel.name(), detector.label());
    for p in experiments::ber_curve(scenario, &snrs, detector, errors, 50_000, 1) {
        println!(
            "  {:>5.1} dB: BER {:.3e}  ({} errors / {} bits, {} iterations)",
            p.snr_db,
            p.ber(),
            p.errors,
            p.bits,
            p.iterations
        );
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), Failure> {
    let topo = Topology::scaled(args.legal("--cores", 1024, Topology::supports_cores, CORE_COUNTS)?);
    println!("TeraPool topology:");
    println!("  cores: {} ({} per tile)", topo.num_cores(), topo.cores_per_tile);
    println!(
        "  hierarchy: {} tiles = {} subgroups x {} -> {} groups",
        topo.num_tiles(),
        topo.tiles_per_subgroup,
        topo.subgroups_per_group,
        topo.groups
    );
    println!(
        "  L1: {} KiB in {} banks ({} KiB / tile)",
        topo.l1_bytes() >> 10,
        topo.num_banks(),
        topo.tile_spm_bytes >> 10
    );
    println!("  worst non-contended access: {} cycles", topo.max_access_latency());
    println!("  I$: {} B per tile, {} B lines", topo.icache_bytes, topo.icache_line);
    Ok(())
}
