//! Ablation studies over the mapper's design knobs:
//!
//! * `lambda`    — A1, decay rate λ_t: SWAP-count vs parallelism
//!   trade-off (§3.3.1's claim that λ_t tunes hardware-adaptive mapping),
//! * `lookahead` — A2, lookahead weight w_l of Eq. (2)/(4),
//! * `alpha`     — A3, decision ratio α = α_g/α_s on mixed hardware
//!   (§4.2's observation that the optimal α varies per circuit),
//! * `timeweight`— shuttle parallelism weight w_t of Eq. (4),
//! * `layout`    — A4, initial layout (identity, center-compact, random).
//!
//! Usage:
//!
//! ```sh
//! cargo run -p na-bench --release --bin ablation -- lambda
//! cargo run -p na-bench --release --bin ablation -- alpha --scale 0.5
//! cargo run -p na-bench --release --bin ablation            # all studies
//! ```

use na_arch::HardwareParams;
use na_bench::{run_experiment, scaled_preset, secs};
use na_circuit::generators::{GraphState, Qft, Reversible};
use na_circuit::{decompose_to_native, Circuit};
use na_mapper::MapperConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut scale = 0.25f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale takes a number in (0, 1]");
            }
            name @ ("lambda" | "lookahead" | "alpha" | "timeweight" | "layout") => {
                which = Some(name.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: ablation [lambda|lookahead|alpha|timeweight|layout] [--scale X]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    match which.as_deref() {
        Some("lambda") => ablate_lambda(scale),
        Some("lookahead") => ablate_lookahead(scale),
        Some("alpha") => ablate_alpha(scale),
        Some("timeweight") => ablate_timeweight(scale),
        Some("layout") => ablate_layout(scale),
        _ => {
            ablate_lambda(scale);
            ablate_lookahead(scale);
            ablate_alpha(scale);
            ablate_timeweight(scale);
            ablate_layout(scale);
        }
    }
}

/// A4: initial layout (identity vs center-compact vs random).
fn ablate_layout(scale: f64) {
    use na_mapper::InitialLayout;
    println!("Ablation A4: initial layout (mixed hardware, hybrid alpha=1)");
    println!(
        "{:<16} {:<8} {:>8} {:>8} {:>12} {:>10}",
        "layout", "circuit", "swaps", "moves", "dT[us]", "dF"
    );
    let params = scaled_preset(HardwareParams::mixed(), scale);
    let n = params.num_atoms.min((200.0 * scale) as u32).max(8);
    let suite: Vec<(&str, Circuit)> = vec![
        ("qft", Qft::new(n).build()),
        (
            "graph",
            GraphState::new(n)
                .edges((n as usize * 215) / 200)
                .seed(7)
                .build(),
        ),
    ];
    for (lname, layout) in [
        ("identity", InitialLayout::Identity),
        ("center-compact", InitialLayout::CenterCompact),
        ("random(1)", InitialLayout::Random(1)),
    ] {
        for (name, circuit) in &suite {
            let config = MapperConfig::try_hybrid(1.0)
                .expect("valid alpha")
                .with_initial_layout(layout);
            match run_experiment(&params, circuit, config) {
                Ok(r) => println!(
                    "{:<16} {:<8} {:>8} {:>8} {:>12.1} {:>10.3}",
                    lname, name, r.swaps, r.moves, r.delta_t_us, r.delta_f
                ),
                Err(e) => println!("{lname:<16} {name:<8} error: {e}"),
            }
        }
    }
    println!();
}

fn qft(scale: f64) -> Circuit {
    Qft::new(((200.0 * scale) as u32).max(8)).build()
}

/// A1: the decay rate λ_t trades SWAP count against schedule parallelism.
fn ablate_lambda(scale: f64) {
    println!("Ablation A1: decay rate lambda_t (gate hardware, qft)");
    println!(
        "{:>8} {:>8} {:>12} {:>10} {:>8}",
        "lambda", "swaps", "dT[us]", "dF", "RT[s]"
    );
    let params = scaled_preset(HardwareParams::gate_based(), scale);
    let circuit = qft(scale);
    for lambda in [0.0, 0.05, 0.1, 0.3, 1.0] {
        let config = MapperConfig::gate_only().with_decay_rate(lambda);
        match run_experiment(&params, &circuit, config) {
            Ok(r) => println!(
                "{:>8} {:>8} {:>12.1} {:>10.3} {:>8}",
                lambda,
                r.swaps,
                r.delta_t_us,
                r.delta_f,
                secs(r.runtime)
            ),
            Err(e) => println!("{lambda:>8} error: {e}"),
        }
    }
    println!();
}

/// A2: lookahead weight w_l.
fn ablate_lookahead(scale: f64) {
    println!("Ablation A2: lookahead weight w_l (gate hardware, qft)");
    println!(
        "{:>8} {:>8} {:>12} {:>10} {:>8}",
        "w_l", "swaps", "dT[us]", "dF", "RT[s]"
    );
    let params = scaled_preset(HardwareParams::gate_based(), scale);
    let circuit = qft(scale);
    for w_l in [0.0, 0.05, 0.1, 0.5, 1.0] {
        let config = MapperConfig::gate_only().with_lookahead_weight(w_l);
        match run_experiment(&params, &circuit, config) {
            Ok(r) => println!(
                "{:>8} {:>8} {:>12.1} {:>10.3} {:>8}",
                w_l,
                r.swaps,
                r.delta_t_us,
                r.delta_f,
                secs(r.runtime)
            ),
            Err(e) => println!("{w_l:>8} error: {e}"),
        }
    }
    println!();
}

/// A3: decision ratio α on mixed hardware — the paper's observation that
/// the optimal α depends on circuit structure (§4.2).
fn ablate_alpha(scale: f64) {
    println!("Ablation A3: decision ratio alpha (mixed hardware)");
    let params = scaled_preset(HardwareParams::mixed(), scale);
    let n = params.num_atoms.min((200.0 * scale) as u32).max(8);
    let suite: Vec<(&str, Circuit)> = vec![
        ("qft", Qft::new(n).build()),
        (
            "graph",
            GraphState::new(n)
                .edges((n as usize * 215) / 200)
                .seed(7)
                .build(),
        ),
        (
            "bn",
            decompose_to_native(
                &Reversible::new(n.min(48))
                    .counts(&[(2, (133.0 * scale) as usize), (3, (87.0 * scale) as usize)])
                    .seed(11)
                    .build(),
            ),
        ),
    ];
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>12} {:>10}",
        "circuit", "alpha", "swaps", "moves", "dT[us]", "dF"
    );
    for (name, circuit) in &suite {
        for alpha in [0.25, 0.5, 1.0, 2.0, 4.0] {
            match run_experiment(
                &params,
                circuit,
                MapperConfig::try_hybrid(alpha).expect("valid alpha"),
            ) {
                Ok(r) => println!(
                    "{:<8} {:>8} {:>8} {:>8} {:>12.1} {:>10.3}",
                    name, alpha, r.swaps, r.moves, r.delta_t_us, r.delta_f
                ),
                Err(e) => println!("{name:<8} {alpha:>8} error: {e}"),
            }
        }
        println!();
    }
}

/// w_t: the shuttle parallelism weight of Eq. (4).
fn ablate_timeweight(scale: f64) {
    println!("Ablation: shuttle time weight w_t (shuttling hardware, qft)");
    println!(
        "{:>8} {:>8} {:>12} {:>10} {:>8}",
        "w_t", "moves", "dT[us]", "dF", "RT[s]"
    );
    let params = scaled_preset(HardwareParams::shuttling(), scale);
    let circuit = qft(scale);
    for w_t in [0.0, 0.05, 0.1, 0.5, 1.0] {
        let config = MapperConfig::shuttle_only().with_time_weight(w_t);
        match run_experiment(&params, &circuit, config) {
            Ok(r) => println!(
                "{:>8} {:>8} {:>12.1} {:>10.3} {:>8}",
                w_t,
                r.moves,
                r.delta_t_us,
                r.delta_f,
                secs(r.runtime)
            ),
            Err(e) => println!("{w_t:>8} error: {e}"),
        }
    }
    println!();
}
