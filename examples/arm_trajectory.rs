//! A robot arm tracking a trajectory with its inverse kinematics computed
//! by a merged-interface RCS.
//!
//! Trains MEI on workspace-covering IK samples, then tracks an unseen
//! trajectory: for every target position the RCS proposes joint angles, the
//! (exact) forward kinematics moves the arm, and the tracking error is the
//! distance between the commanded and reached positions. A recorded sweep
//! (`workloads::traces::inversek2j_trace`) augments the training set with
//! trajectory-like pose correlations.
//!
//! Run with: `cargo run --release --example arm_trajectory`

use crossbar::SignalFluctuation;
use mei::{AddaConfig, AddaRcs, MeiConfig, MeiRcs, Rcs};
use neural::TrainConfig;
use prng::rngs::StdRng;
use prng::SeedableRng;
use workloads::inversek2j::{forward_kinematics, InverseK2j};
use workloads::traces::inversek2j_trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== inversek2j: trajectory tracking through MEI ==\n");

    // Train on workspace-covering samples plus one recorded sweep.
    let workload = workloads::inversek2j::InverseK2j::new();
    let sampled = workloads::Workload::dataset(&workload, 6_000, 1)?;
    let trace = inversek2j_trace(2_000)?;
    let mut inputs = sampled.inputs().to_vec();
    let mut targets = sampled.targets().to_vec();
    inputs.extend(trace.inputs().to_vec());
    targets.extend(trace.targets().to_vec());
    let train = neural::Dataset::new(inputs, targets)?;
    let rcs = MeiRcs::train(
        &train,
        &MeiConfig {
            in_bits: 8,
            out_bits: 8,
            hidden: 32,
            train: TrainConfig {
                epochs: 150,
                learning_rate: 0.5,
                lr_decay: 0.995,
                ..TrainConfig::default()
            },
            ..MeiConfig::default()
        },
    )?;
    println!(
        "trained MEI RCS {} on {} samples ({} from a recorded sweep)",
        rcs.topology(),
        train.len(),
        trace.len()
    );
    // The traditional architecture on the same data, for context.
    let adda = AddaRcs::train(
        &train,
        &AddaConfig {
            hidden: 8,
            train: TrainConfig {
                epochs: 150,
                learning_rate: 0.8,
                lr_decay: 0.995,
                ..TrainConfig::default()
            },
            ..AddaConfig::default()
        },
    )?;

    // …and track a different (shifted-phase) trajectory.
    let steps = 200;
    let mut mei_total = 0.0_f64;
    let mut adda_total = 0.0_f64;
    let mut worst = 0.0_f64;
    println!("\nstep | target (x, y) | MEI reached | error");
    for i in 0..steps {
        let phase = (i as f64 + 0.37) / steps as f64 * std::f64::consts::TAU;
        let t1 = std::f64::consts::FRAC_PI_2 * (0.5 + 0.4 * (phase + 0.8).sin());
        let t2 = 0.2 + (std::f64::consts::PI - 0.4) * (0.5 + 0.4 * (2.0 * phase).cos());
        let (tx, ty) = forward_kinematics(t1, t2);
        let pos = InverseK2j::normalize_position(tx, ty);

        let track = |angles: &[f64]| -> (f64, f64, f64) {
            let (a1, a2) = InverseK2j::denormalize_angles(angles);
            let (rx, ry) = forward_kinematics(a1, a2);
            (rx, ry, ((tx - rx).powi(2) + (ty - ry).powi(2)).sqrt())
        };
        let (rx, ry, mei_err) = track(&rcs.infer(&pos)?);
        let (_, _, adda_err) = track(&adda.infer(&pos)?);
        mei_total += mei_err;
        adda_total += adda_err;
        worst = worst.max(mei_err);
        if i % 40 == 0 {
            println!("{i:4} | ({tx:+.3}, {ty:+.3}) | ({rx:+.3}, {ry:+.3}) | {mei_err:.4}");
        }
    }
    println!(
        "\nmean tracking error (arm reach = 1.0): MEI {:.4} (worst {:.4}) | AD/DA RCS {:.4}",
        mei_total / steps as f64,
        worst,
        adda_total / steps as f64
    );
    println!(
        "every MEI angle came out of the crossbar as an 8-bit binary word — no DACs, no ADCs."
    );

    // The flip the paper predicts: under signal fluctuation the binary
    // interface holds up while the analog one falls apart (Fig 5).
    let sf = SignalFluctuation::new(0.1);
    let mut rng = StdRng::seed_from_u64(9);
    let mut mei_noisy = 0.0_f64;
    let mut adda_noisy = 0.0_f64;
    for i in 0..steps {
        let phase = (i as f64 + 0.37) / steps as f64 * std::f64::consts::TAU;
        let t1 = std::f64::consts::FRAC_PI_2 * (0.5 + 0.4 * (phase + 0.8).sin());
        let t2 = 0.2 + (std::f64::consts::PI - 0.4) * (0.5 + 0.4 * (2.0 * phase).cos());
        let (tx, ty) = forward_kinematics(t1, t2);
        let pos = InverseK2j::normalize_position(tx, ty);
        let err_of = |angles: &[f64]| -> f64 {
            let (a1, a2) = InverseK2j::denormalize_angles(angles);
            let (rx, ry) = forward_kinematics(a1, a2);
            ((tx - rx).powi(2) + (ty - ry).powi(2)).sqrt()
        };
        mei_noisy += err_of(&rcs.predict_noisy(&pos, &sf, &mut rng));
        adda_noisy += err_of(&adda.predict_noisy(&pos, &sf, &mut rng));
    }
    println!(
        "\nwith signal fluctuation σ = 0.1: MEI {:.4} | AD/DA RCS {:.4}  (the Fig 5 flip)",
        mei_noisy / steps as f64,
        adda_noisy / steps as f64
    );
    Ok(())
}
